"""Check that a change leaves every output byte of the ``esi`` commands as is.

    python3 tools/samebytes.py --against REV

Exports REV with ``git archive`` into a temporary directory, then runs one
tiny experiment through all five commands once with REV's ``src/`` and once
with this checkout's: simulate, train, a resume into the same directory and
into a new one, eval with both solvers, and localize on a sample and on an
all-zero fragment. It prints every output file that differs or exists on
one side only, and every command whose exit code or stdout differs. A
differing JSON, CSV or ESIT file whose numbers alone changed is listed with
the largest relative difference over them; any other is ``non-numeric``.
Exits 1 if there is any such difference or a command fails on either side,
2 if REV cannot be exported, 0 otherwise.

Both sides run on this machine, so the comparison holds whatever BLAS build
the machine has; no hash is committed. The experiment is the list ``STEPS``
run by :func:`run_scenario`, which ``tests/test_cli.py`` also runs twice in
one process to check that a rerun writes the same bytes.
"""

import argparse
import csv
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# 16 regions, 8 channels, a noisy and a noiseless cell of 13 samples each:
# 22 training samples at batch size 3, so every epoch ends on a b=1 step.
CONFIG = {
    "seed": 5,
    "geometry": {"n_regions": 16, "k_neighbors": 3, "n_channels": 8},
    "simulation": {
        "n_timepoints": 32,
        "sample_rate": 100.0,
        "grid": [{"snr_db": 5, "n_sources": 1, "extent": 2},
                 {"snr_db": "inf", "n_sources": 1, "extent": 1}],
        "n_samples_per_cell": 13,
    },
    "model": {"patch_len": 8, "overlap": 4, "attention_dim": 4,
              "mlp_hidden": 8, "batch_size": 3, "lr": 1e-3},
    "training": {"epochs": 3},
    "evaluation": {},
    "paths": {"workdir": "data"},
}

# Each step's argv, run in the scenario's directory.
STEPS = [
    ["simulate", "--config", "config.json"],
    ["train", "--config", "config.json", "--out", "train"],
    ["train", "--config", "config.json", "--out", "train",
     "--checkpoint", "train/best"],
    ["train", "--config", "config.json", "--out", "resumed",
     "--checkpoint", "train/best"],
    ["eval", "--config", "config.json", "--out", "eval", "--solver", "both",
     "--checkpoint", "train/best"],
    ["localize", "--config", "config.json", "--out", "localize",
     "--checkpoint", "resumed/best",
     "--fragment", "data/sample_000_000011.X.esit"],
    ["localize", "--config", "config.json", "--out", "localize_zero",
     "--checkpoint", "resumed/best", "--fragment", "zero.X.esit"],
]

# An all-zero 8x32 fragment as ESIT bytes (magic, version 1, rank 2, u32
# dims, float32 payload), written without esikit so both sides read one file.
ZERO_FRAGMENT = b"ESIT" + struct.pack("<BB2I", 1, 2, 8, 32) + bytes(4 * 8 * 32)


def run_scenario(root, esi):
    """Write the config into ``root`` and run ``STEPS`` through ``esi``.

    ``esi(argv)`` runs one command with ``root`` as its working directory and
    returns ``(exit_code, stdout)``. Returns the list of those pairs.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "config.json").write_text(json.dumps(CONFIG, indent=2))
    (root / "zero.X.esit").write_bytes(ZERO_FRAGMENT)
    return [esi(argv) for argv in STEPS]


def output_files(root):
    """Every file under ``root``, by path relative to it."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _split_numbers(name, data):
    """(skeleton, numbers) of a JSON, CSV or ESIT file: its numbers in file
    order and the rest of it with each number replaced by ``float``. None for
    any other file or one that does not parse."""
    suffix = Path(name).suffix
    numbers = []

    def split(value):
        if isinstance(value, dict):
            return {k: split(v) for k, v in value.items()}
        if isinstance(value, list):
            return [split(v) for v in value]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            numbers.append(value)
            return float
        return value

    def cell(text):
        try:
            return split(float(text))
        except ValueError:
            return text

    try:
        if suffix == ".json":
            return split(json.loads(data)), numbers
        if suffix == ".csv":
            rows = csv.reader(data.decode().splitlines())
            return [[cell(c) for c in row] for row in rows], numbers
        if suffix == ".esit":
            end = 6 + 4 * data[5]
            count = (len(data) - end) // 4
            return data[:end], list(struct.unpack(f"<{count}f", data[end:]))
    except (ValueError, IndexError, struct.error):
        pass
    return None


def _relative_difference(a, b):
    if a == b or (a != a and b != b):
        return 0.0
    rel = abs(a - b) / max(abs(a), abs(b))
    return rel if rel == rel else float("inf")


def _numeric_difference(name, data_a, data_b):
    """The largest relative difference between the numbers of two versions
    of a JSON, CSV or ESIT file, as text, or ``non-numeric`` if they differ
    in anything but their numbers or are another kind of file."""
    a, b = _split_numbers(name, data_a), _split_numbers(name, data_b)
    if a is None or b is None or a[0] != b[0] or len(a[1]) != len(b[1]):
        return "non-numeric"
    worst = max(map(_relative_difference, a[1], b[1]), default=0.0)
    return f"largest relative difference {worst:.2g}"


def differences(files_a, files_b, transcript_a, transcript_b):
    """One line per file or command that is not the same on both sides."""
    lines = []
    for name in sorted(set(files_a) | set(files_b)):
        if name not in files_b:
            lines.append(f"only in A: {name}")
        elif name not in files_a:
            lines.append(f"only in B: {name}")
        elif files_a[name] != files_b[name]:
            how = _numeric_difference(name, files_a[name], files_b[name])
            lines.append(f"differs: {name} ({how})")
    for argv, a, b in zip(STEPS, transcript_a, transcript_b):
        if a[0] or b[0]:
            lines.append(f"command failed: esi {' '.join(argv)} "
                         f"(exit {a[0]} in A, {b[0]} in B)")
        elif a != b:
            lines.append(f"command output differs: esi {' '.join(argv)}\n"
                         f"  A: exit {a[0]}, stdout {a[1]!r}\n"
                         f"  B: exit {b[0]}, stdout {b[1]!r}")
    return lines


def subprocess_esi(src, root):
    """An ``esi`` that runs ``python -m esikit.cli`` from ``src`` in ``root``."""
    env = dict(os.environ, PYTHONPATH=str(src))

    def esi(argv):
        done = subprocess.run([sys.executable, "-m", "esikit.cli", *argv],
                              cwd=root, env=env, capture_output=True, text=True)
        if done.returncode:
            sys.stderr.write(done.stderr)
        return done.returncode, done.stdout
    return esi


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True,
                        help="git revision to compare this checkout with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        tmp = Path(tmp)
        tree = tmp / "rev"
        tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against],
                                 capture_output=True)
        if archive.returncode:
            sys.stderr.write(archive.stderr.decode(errors="replace"))
            return 2
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout,
                       check=True)
        sides = {}
        for label, src in (("A", tree / "src"), ("B", ROOT / "src")):
            out = tmp / label
            out.mkdir()
            sides[label] = (run_scenario(out, subprocess_esi(src, out)),
                            output_files(out))
        (trans_a, files_a), (trans_b, files_b) = sides["A"], sides["B"]
    print(f"A: {args.against}; B: the checkout at {ROOT}")
    lines = differences(files_a, files_b, trans_a, trans_b)
    for line in lines:
        print(line)
    print(f"{len(files_a)} files in A, {len(files_b)} in B, "
          f"{len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
