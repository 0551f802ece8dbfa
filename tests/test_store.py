import numpy as np
import pytest

from growcl.store import StoreFormatError, read_container, write_container


def test_round_trip_arrays_and_header(tmp_path):
    path = tmp_path / "x.bin"
    header = {"kind": "test", "n": 3}
    arrays = {
        "a": np.random.default_rng(0).normal(size=(2, 3, 4)),
        "b": np.arange(5, dtype=np.int64),
        "states": np.array([0, 1, 2], dtype=np.int8),
        "owners": np.array([[1, 2]], dtype=np.int32),
    }
    write_container(path, header, arrays)
    h, back = read_container(path)
    assert h == header
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype
        assert back[name].tobytes() == arr.tobytes()


def test_rewrite_is_byte_identical(tmp_path):
    arrays = {"w": np.linspace(0, 1, 7)}
    write_container(tmp_path / "a.bin", {"v": 1}, arrays)
    write_container(tmp_path / "b.bin", {"v": 1}, arrays)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_insertion_order_does_not_matter(tmp_path):
    a = {"x": np.ones(2), "y": np.zeros(3)}
    b = {"y": np.zeros(3), "x": np.ones(2)}
    write_container(tmp_path / "a.bin", {}, a)
    write_container(tmp_path / "b.bin", {}, b)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(StoreFormatError, match="magic"):
        read_container(p)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(StoreFormatError, match="dtype"):
        write_container(tmp_path / "x.bin", {}, {"a": np.zeros(2, dtype=np.float32)})


def test_trailing_garbage_rejected(tmp_path):
    p = tmp_path / "x.bin"
    write_container(p, {}, {"a": np.zeros(2)})
    p.write_bytes(p.read_bytes() + b"junk")
    with pytest.raises(StoreFormatError, match="trailing"):
        read_container(p)


def test_no_tmp_file_left_behind(tmp_path):
    write_container(tmp_path / "x.bin", {}, {"a": np.zeros(1)})
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


def small_container(tmp_path):
    p = tmp_path / "x.bin"
    write_container(p, {"kind": "test"}, {
        "a": np.arange(6, dtype=np.float64).reshape(2, 3),
        "owners": np.array([1, 2], dtype=np.int32),
        "scalar": np.array(7, dtype=np.int8),
    })
    return p


def test_empty_and_zero_d_arrays_round_trip(tmp_path):
    arrays = {"empty": np.zeros((0, 3)), "scalar": np.array(2.5)}
    write_container(tmp_path / "x.bin", {}, arrays)
    _, back = read_container(tmp_path / "x.bin")
    for name, arr in arrays.items():
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


def test_every_truncation_rejected(tmp_path):
    p = small_container(tmp_path)
    raw = p.read_bytes()
    for cut in range(len(raw)):
        p.write_bytes(raw[:cut])
        with pytest.raises(StoreFormatError):
            read_container(p)


def test_bad_dtype_code_rejected(tmp_path):
    p = tmp_path / "x.bin"
    write_container(p, {}, {"a": np.zeros(2)})
    raw = bytearray(p.read_bytes())
    code_at = 4 + 4 + len(b"{}") + 4 + 2 + len(b"a")
    assert raw[code_at] == 0   # the float64 code
    raw[code_at] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(StoreFormatError, match="KeyError"):
        read_container(p)


@pytest.mark.parametrize("header", [[1, 2], "text", 3])
def test_non_object_header_rejected(tmp_path, header):
    write_container(tmp_path / "x.bin", header, {})
    with pytest.raises(StoreFormatError, match="not an object"):
        read_container(tmp_path / "x.bin")
