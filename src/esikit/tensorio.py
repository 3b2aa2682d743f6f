"""Binary tensor file format used repo-wide, plus JSON-indexed checkpoint dirs.

Layout of a tensor file: magic b"ESIT", version u8 (=1), rank u8,
dims as u32 little-endian, payload float32 little-endian row-major.
"""

import json
import operator
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"ESIT"
VERSION = 1


def read_json(path, parse):
    """``parse(doc)`` of JSON file ``path``; FormatError naming the file if it is
    not UTF-8 JSON or ``parse`` raises KeyError, IndexError, TypeError or ValueError."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FormatError(f"{path}: not valid JSON: {err}") from err
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise FormatError(f"{path}: malformed: {err!r}") from err


def save_tensor(arr, path):
    """Write ``arr`` (any real dtype) as a float32 ESIT tensor file."""
    arr = np.asarray(arr, dtype=np.float32)
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BB", VERSION, arr.ndim))
        fh.write(struct.pack("<%dI" % arr.ndim, *arr.shape))
        fh.write(arr.tobytes(order="C"))


def load_tensor(path):
    """Read an ESIT tensor file, returning a float32 ndarray."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 6 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic, not an ESIT tensor file")
    version, rank = struct.unpack_from("<BB", raw, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    header_end = 6 + 4 * rank
    if len(raw) < header_end:
        raise FormatError(f"{path}: truncated header")
    dims = struct.unpack_from("<%dI" % rank, raw, 6)
    n_expected = int(np.prod(dims)) if rank else 1
    payload = raw[header_end:]
    if len(payload) != 4 * n_expected:
        raise FormatError(
            f"{path}: payload holds {len(payload) // 4} values, header says {n_expected}"
        )
    return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()


def save_tensor_dir(tensors, out_dir):
    """Write a dict of named tensors as ESIT files plus an index.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = {}
    for name in sorted(tensors):
        fname = name.replace("/", "_") + ".esit"
        save_tensor(tensors[name], out_dir / fname)
        index[name] = {"file": fname, "dims": list(np.shape(tensors[name]))}
    (out_dir / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True))


def load_tensor_dir(in_dir):
    """Inverse of :func:`save_tensor_dir`; returns name -> float32 ndarray."""
    in_dir = Path(in_dir)
    if not (in_dir / "index.json").exists():
        raise FormatError(f"{in_dir}: missing index.json")
    index = read_json(in_dir / "index.json", lambda doc: {
        name: (in_dir / entry["file"], tuple(map(operator.index, entry["dims"])))
        for name, entry in dict(doc).items()})
    out = {}
    for name, (path, dims) in index.items():
        out[name] = load_tensor(path)
        if out[name].shape != dims:
            raise FormatError(f"{path}: dims disagree with index")
    return out
