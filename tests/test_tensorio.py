import json
import struct
from pathlib import Path

import numpy as np
import pytest

from esikit.errors import FormatError
from esikit.tensorio import (
    MAGIC,
    load_tensor,
    load_tensor_dir,
    read_json,
    save_tensor,
    save_tensor_dir,
)


@pytest.mark.parametrize("shape", [(), (5,), (4, 8), (2, 3, 4), (1, 2, 3, 4)])
def test_round_trip_shapes(tmp_path, shape):
    rng = np.random.Generator(np.random.PCG64(0))
    arr = rng.standard_normal(shape).astype(np.float32)
    save_tensor(arr, tmp_path / "t.esit")
    back = load_tensor(tmp_path / "t.esit")
    assert back.shape == arr.shape
    np.testing.assert_array_equal(back, arr)


def test_f64_input_stored_as_f32(tmp_path):
    arr = np.array([[1.0, 2.0], [3.0, 1e-9]], dtype=np.float64)
    save_tensor(arr, tmp_path / "t.esit")
    back = load_tensor(tmp_path / "t.esit")
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr.astype(np.float32))


def test_header_layout(tmp_path):
    save_tensor(np.zeros((4, 8), dtype=np.float32), tmp_path / "t.esit")
    raw = (tmp_path / "t.esit").read_bytes()
    assert raw[:4] == MAGIC
    version, rank = struct.unpack_from("<BB", raw, 4)
    assert (version, rank) == (1, 2)
    assert struct.unpack_from("<2I", raw, 6) == (4, 8)
    assert len(raw) == 6 + 8 + 4 * 32


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.esit"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError):
        load_tensor(p)


def test_unsupported_version(tmp_path):
    p = tmp_path / "bad.esit"
    p.write_bytes(MAGIC + struct.pack("<BB", 9, 1) + struct.pack("<I", 1) + bytes(4))
    with pytest.raises(FormatError):
        load_tensor(p)


def test_truncated_payload(tmp_path):
    # header says 4x8 = 32 values but only 30 are present
    p = tmp_path / "trunc.esit"
    p.write_bytes(MAGIC + struct.pack("<BB", 1, 2) + struct.pack("<2I", 4, 8)
                  + bytes(4 * 30))
    with pytest.raises(FormatError):
        load_tensor(p)


def test_truncated_header(tmp_path):
    p = tmp_path / "trunc.esit"
    p.write_bytes(MAGIC + struct.pack("<BB", 1, 3) + struct.pack("<I", 2))
    with pytest.raises(FormatError):
        load_tensor(p)


def test_tensor_dir_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(1))
    tensors = {
        "head.w": rng.standard_normal((3, 4)).astype(np.float32),
        "gru/fw/u": rng.standard_normal((6, 2)).astype(np.float32),
        "bias": rng.standard_normal(5).astype(np.float32),
    }
    save_tensor_dir(tensors, tmp_path / "ckpt")
    back = load_tensor_dir(tmp_path / "ckpt")
    assert set(back) == set(tensors)
    for name in tensors:
        np.testing.assert_array_equal(back[name], tensors[name])


def test_tensor_dir_missing_index(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(FormatError):
        load_tensor_dir(tmp_path / "empty")


# each malformed file with the message load_tensor gives after its name
BAD_TENSORS = {
    b"NOPE" + bytes(20): "bad magic, not an ESIT tensor file",
    MAGIC + struct.pack("<BB", 9, 1) + struct.pack("<I", 1) + bytes(4):
        "unsupported format version 9",
    MAGIC + struct.pack("<BB", 1, 3) + struct.pack("<I", 2): "truncated header",
    MAGIC + struct.pack("<BB", 1, 2) + struct.pack("<2I", 4, 8) + bytes(4 * 30):
        "payload holds 30 values, header says 32",
}


def _spellings(tmp_path, name):
    """One file named as a Path and as str, in pathlib's form and not."""
    return [tmp_path / name, str(tmp_path / name), f"{tmp_path}//{name}",
            f"{tmp_path}/./{name}", Path(name), name, f"./{name}"]


@pytest.mark.parametrize("raw", list(BAD_TENSORS), ids=list(BAD_TENSORS.values()))
def test_load_tensor_error_names_the_file_as_pathlib_does(tmp_path, monkeypatch, raw):
    (tmp_path / "bad.esit").write_bytes(raw)
    monkeypatch.chdir(tmp_path)
    for given in _spellings(tmp_path, "bad.esit"):
        with pytest.raises(FormatError) as err:
            load_tensor(given)
        assert str(err.value) == f"{Path(given)}: {BAD_TENSORS[raw]}", given


def test_load_tensor_missing_file_is_named_as_pathlib_does(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for given in _spellings(tmp_path, "missing.esit"):
        with pytest.raises(FileNotFoundError) as err:
            load_tensor(given)
        assert str(err.value).endswith(f": '{Path(given)}'"), given


def test_load_tensor_returns_an_owned_writable_float32_array(tmp_path, monkeypatch):
    arr = np.arange(12, dtype=np.float32).reshape(3, 4) / 7
    save_tensor(arr, tmp_path / "t.esit")
    monkeypatch.chdir(tmp_path)
    for given in _spellings(tmp_path, "t.esit"):
        back = load_tensor(given)
        assert back.dtype == np.float32
        assert back.flags.writeable and back.flags.owndata
        np.testing.assert_array_equal(back, arr)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_read_json_refuses_nan_and_infinity(tmp_path, constant):
    p = tmp_path / "d.json"
    p.write_text(f'{{"x": [1.5, {constant}]}}')
    with pytest.raises(FormatError) as err:
        read_json(p, dict)
    assert str(err.value) == f"{p}: not valid JSON: {constant} is not a JSON number"


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\n"])
def test_read_json_errors_count_characters_as_a_text_read_does(tmp_path, newline):
    # a text-mode read turns \r\n and \r into \n, which moves the reported
    # position of a syntax error
    p = tmp_path / "d.json"
    p.write_bytes(newline.join(["{", '  "a": 1,', '  "b": }']).encode())
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(p.read_text())
    with pytest.raises(FormatError) as err:
        read_json(p, dict)
    assert str(err.value) == f"{p}: not valid JSON: {want.value}"
