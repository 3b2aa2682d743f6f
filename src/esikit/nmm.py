"""Jansen-Rit neural-mass simulation and paired source/scalp data generation.

The three-population model is integrated with fixed-step RK4; the external
firing-rate input p(t) is drawn on a fixed 1 ms grid and held piecewise
constant, so refining the integration step converges to the same waveform.

The integrator is one flat loop on six Python floats, one oscillator at a
time: at the 1-3 oscillators a sample needs, that beats a vectorised numpy
state, and a waveform's bits depend only on its parameters and seed. Each
step writes out its four RK4 stages (12 clamped sigmoids, 12 accelerations)
inline, calling only ``math.exp``; the steps that record a sample and each
step's drive value are listed before the loop starts, so a step only
compares its index with the next recording step. Datasets are generated sample by sample in
one thread; the loop holds the GIL, so threads would not run it any faster.
"""

import json
import math
import operator
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, InstabilityError, ParameterError, PlacementError
from .geometry import RegionSet, grow_patch, hop_distances
from .tensorio import load_tensor, read_json, save_tensor

INPUT_DT = 1e-3           # resolution of the piecewise-constant input drive
HOP_DECAY = 0.7           # per-hop amplitude factor inside an extended source
NOISELESS = float("inf")  # snr_db sentinel disabling sensor noise


@dataclass(frozen=True)
class JansenRitParams:
    A: float = 3.25          # excitatory gain, mV
    B: float = 22.0          # inhibitory gain, mV
    a: float = 100.0         # excitatory rate constant, 1/s
    b: float = 50.0          # inhibitory rate constant, 1/s
    C: float = 135.0         # connectivity constant
    c2_factor: float = 0.8   # C2 = c2_factor * C (0.9 in the spike preset)
    e0: float = 2.5          # half max firing rate, 1/s
    v0: float = 6.0          # sigmoid midpoint, mV
    r_sig: float = 0.56      # sigmoid steepness, 1/mV
    input_mean: float = 220.0
    input_std: float = 22.0
    input_pulse_rate: float = 0.0   # spike preset: Poisson pulse rate, 1/s
    input_pulse_amp: float = 0.0
    dt: float = 1e-4
    burn_in: float = 1.0

    def __post_init__(self):
        for name in ("A", "B", "a", "b", "C", "e0", "r_sig"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"JansenRitParams.{name} must be > 0")
        if self.dt > 1e-3:
            raise ParameterError("dt must be <= 1e-3 s")
        if self.burn_in < 0:
            raise ParameterError("burn_in must be >= 0")


ALPHA_PRESET = JansenRitParams()
SPIKE_PRESET = JansenRitParams(c2_factor=0.9, input_pulse_rate=3.0,
                               input_pulse_amp=400.0)
PRESETS = {"alpha": ALPHA_PRESET, "spike": SPIKE_PRESET}


@dataclass(frozen=True)
class SimulationConfig:
    snr_db: float
    n_sources: int
    extent: int
    n_timepoints: int
    sample_rate: float
    seed: int
    preset: str = "alpha"

    def __post_init__(self):
        if self.n_sources < 1:
            raise ParameterError("n_sources must be >= 1")
        if self.n_timepoints < 32:
            raise ParameterError("n_timepoints must be >= 32")
        if not np.isfinite(self.snr_db) and self.snr_db != NOISELESS:
            raise ParameterError("snr_db must be finite or the noiseless sentinel")


@dataclass(frozen=True)
class PairedSample:
    X: np.ndarray              # (n_channels, n_timepoints)
    S: np.ndarray              # (n_regions, n_timepoints)
    ground_truth: tuple        # tuple of RegionSet
    config: SimulationConfig


def simulate_jansen_rit(params, n_timepoints, sample_rate, seed):
    """Pyramidal membrane potential y1 - y2, mean-centered, at sample_rate."""
    if sample_rate < 100.0:
        raise ParameterError(f"sample_rate must be >= 100 Hz, got {sample_rate}")
    p = params
    duration = params.burn_in + n_timepoints / sample_rate
    n_steps = int(np.ceil(duration / p.dt))
    rng = np.random.Generator(np.random.PCG64(seed))
    # input drive on a fixed grid, independent of dt
    n_inputs = int(np.ceil(duration / INPUT_DT)) + 1
    drive = p.input_mean + p.input_std * rng.standard_normal(n_inputs)
    if p.input_pulse_rate > 0.0:
        pulses = rng.random(n_inputs) < p.input_pulse_rate * INPUT_DT
        drive = drive + p.input_pulse_amp * pulses
    drive = drive.tolist()
    # Loop-invariant factors are hoisted without changing the association of
    # any product, so the waveform keeps the bits of the textbook form
    #   y0' = y3, y1' = y4, y2' = y5,
    #   y3' = A a S(y1 - y2) - 2 a y3 - a^2 y0,
    #   y4' = A a (p + C2 S(C1 y0)) - 2 a y4 - a^2 y1,
    #   y5' = B b C4 S(C3 y0) - 2 b y5 - b^2 y2,
    # with S(v) = 2 e0 / (1 + exp(r (v0 - v))).
    A, B, a, b = p.A, p.B, p.a, p.b
    e0_2, v0, rs = 2.0 * p.e0, p.v0, p.r_sig
    c1 = p.C
    c2 = p.c2_factor * p.C
    c3 = c4 = 0.25 * p.C
    Aa, Bbc4 = A * a, B * b * c4
    a_2, b_2 = 2.0 * a, 2.0 * b
    a2, b2 = a * a, b * b
    dt = p.dt
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    exp = math.exp
    # The sample schedule and the drive are fixed before the first step:
    # record_at lists the steps that record y1 - y2 (the float recurrence
    # below, capped at n_timepoints, then a -1 sentinel no step reaches), and
    # drive_at holds each step's piecewise-constant input. The index must stay
    # k * (dt / INPUT_DT): (k * dt) / INPUT_DT rounds differently at some k.
    steps_per_sample = 1.0 / (sample_rate * dt)
    next_sample = p.burn_in / dt
    record_at = []
    for k in range(n_steps + 1):
        if len(record_at) == n_timepoints:
            break
        if k >= next_sample - 1e-9:
            record_at.append(k)
            next_sample += steps_per_sample
    record_at.append(-1)
    dt_over_input = dt / INPUT_DT
    drive_at = [drive[int(k * dt_over_input)] for k in range(n_steps + 1)]

    y0 = y1 = y2 = y3 = y4 = y5 = 0.0
    samples = []
    record_k = record_at[0]
    for k, d in enumerate(drive_at):
        if k == record_k:
            samples.append(y1 - y2)
            record_k = record_at[len(samples)]
        # Stage j evaluates the accelerations (y3', y4', y5') = (f3_j, f4_j,
        # f5_j) at positions u0..u2 and velocities v3_j..v5_j: stage 1 at the
        # state itself, stage j > 1 at y0..y2 + h * (stage j-1 velocities) and
        # y3..y5 + h * (stage j-1 accelerations), with h = dt/2, dt/2, dt.
        # S clamps to 0 where its exponent exceeds 500, since the sigmoid
        # saturates long before exp overflows.
        z = rs * (v0 - (y1 - y2))
        s = 0.0 if z > 500.0 else e0_2 / (1.0 + exp(z))
        f3_1 = Aa * s - a_2 * y3 - a2 * y0
        z = rs * (v0 - c1 * y0)
        s = 0.0 if z > 500.0 else e0_2 / (1.0 + exp(z))
        f4_1 = Aa * (d + c2 * s) - a_2 * y4 - a2 * y1
        z = rs * (v0 - c3 * y0)
        s = 0.0 if z > 500.0 else e0_2 / (1.0 + exp(z))
        f5_1 = Bbc4 * s - b_2 * y5 - b2 * y2

        u0 = y0 + half_dt * y3
        u1 = y1 + half_dt * y4
        u2 = y2 + half_dt * y5
        v3_2 = y3 + half_dt * f3_1
        v4_2 = y4 + half_dt * f4_1
        v5_2 = y5 + half_dt * f5_1
        z = rs * (v0 - (u1 - u2))
        s = 0.0 if z > 500.0 else e0_2 / (1.0 + exp(z))
        f3_2 = Aa * s - a_2 * v3_2 - a2 * u0
        z = rs * (v0 - c1 * u0)
        s = 0.0 if z > 500.0 else e0_2 / (1.0 + exp(z))
        f4_2 = Aa * (d + c2 * s) - a_2 * v4_2 - a2 * u1
        z = rs * (v0 - c3 * u0)
        s = 0.0 if z > 500.0 else e0_2 / (1.0 + exp(z))
        f5_2 = Bbc4 * s - b_2 * v5_2 - b2 * u2

        u0 = y0 + half_dt * v3_2
        u1 = y1 + half_dt * v4_2
        u2 = y2 + half_dt * v5_2
        v3_3 = y3 + half_dt * f3_2
        v4_3 = y4 + half_dt * f4_2
        v5_3 = y5 + half_dt * f5_2
        z = rs * (v0 - (u1 - u2))
        s = 0.0 if z > 500.0 else e0_2 / (1.0 + exp(z))
        f3_3 = Aa * s - a_2 * v3_3 - a2 * u0
        z = rs * (v0 - c1 * u0)
        s = 0.0 if z > 500.0 else e0_2 / (1.0 + exp(z))
        f4_3 = Aa * (d + c2 * s) - a_2 * v4_3 - a2 * u1
        z = rs * (v0 - c3 * u0)
        s = 0.0 if z > 500.0 else e0_2 / (1.0 + exp(z))
        f5_3 = Bbc4 * s - b_2 * v5_3 - b2 * u2

        u0 = y0 + dt * v3_3
        u1 = y1 + dt * v4_3
        u2 = y2 + dt * v5_3
        v3_4 = y3 + dt * f3_3
        v4_4 = y4 + dt * f4_3
        v5_4 = y5 + dt * f5_3
        z = rs * (v0 - (u1 - u2))
        s = 0.0 if z > 500.0 else e0_2 / (1.0 + exp(z))
        f3_4 = Aa * s - a_2 * v3_4 - a2 * u0
        z = rs * (v0 - c1 * u0)
        s = 0.0 if z > 500.0 else e0_2 / (1.0 + exp(z))
        f4_4 = Aa * (d + c2 * s) - a_2 * v4_4 - a2 * u1
        z = rs * (v0 - c3 * u0)
        s = 0.0 if z > 500.0 else e0_2 / (1.0 + exp(z))
        f5_4 = Bbc4 * s - b_2 * v5_4 - b2 * u2

        y0 += sixth_dt * (y3 + 2.0 * v3_2 + 2.0 * v3_3 + v3_4)
        y1 += sixth_dt * (y4 + 2.0 * v4_2 + 2.0 * v4_3 + v4_4)
        y2 += sixth_dt * (y5 + 2.0 * v5_2 + 2.0 * v5_3 + v5_4)
        y3 += sixth_dt * (f3_1 + 2.0 * f3_2 + 2.0 * f3_3 + f3_4)
        y4 += sixth_dt * (f4_1 + 2.0 * f4_2 + 2.0 * f4_3 + f4_4)
        y5 += sixth_dt * (f5_1 + 2.0 * f5_2 + 2.0 * f5_3 + f5_4)
        # abs(y) > 1e6 written as two compares: NaN trips neither, inf one
        if (y0 > 1e6 or y0 < -1e6 or y1 > 1e6 or y1 < -1e6
                or y2 > 1e6 or y2 < -1e6):
            raise InstabilityError(
                f"Jansen-Rit integration blew up at t={k * dt:.4f}s with {params}"
            )
    if len(samples) < n_timepoints:
        raise ParameterError("integration window shorter than requested waveform")
    wave = np.asarray(samples)
    return wave - wave.mean()


def generate_source_activity(space, cfg, params):
    """Place non-overlapping extended sources and fill S with NMM waveforms.

    Each source shares one waveform across its footprint, scaled by
    HOP_DECAY per graph hop from the center. Returns (S, ground_truth).
    """
    probe = range(space.n_regions) if space.n_regions <= 256 else range(0, space.n_regions, 17)
    max_footprint = max(len(grow_patch(space, c, cfg.extent)) for c in probe)
    if cfg.n_sources * max_footprint >= space.n_regions / 2:
        raise ParameterError(
            "source footprints would cover half the source space; "
            "reduce n_sources or extent"
        )
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    placed = []     # hop map of each accepted source; its keys are the footprint
    occupied = set()
    attempts = 0
    while len(placed) < cfg.n_sources:
        attempts += 1
        if attempts > 1000:
            raise PlacementError(
                f"could not place {cfg.n_sources} non-overlapping sources "
                f"of extent {cfg.extent} in 1000 attempts"
            )
        hops = hop_distances(space, int(rng.integers(space.n_regions)), cfg.extent - 1)
        if not occupied.isdisjoint(hops):
            continue
        placed.append(hops)
        occupied.update(hops)
    S = np.zeros((space.n_regions, cfg.n_timepoints))
    for k, hops in enumerate(placed):
        wave = simulate_jansen_rit(params, cfg.n_timepoints, cfg.sample_rate,
                                   seed=cfg.seed * 1000003 + k)
        for region, h in hops.items():
            S[region] = (HOP_DECAY ** h) * wave
    return S, tuple(RegionSet(frozenset(hops)) for hops in placed)


def project_forward(lf, S):
    """Noiseless scalp projection X = G @ S."""
    G = lf.matrix
    S = np.asarray(S, dtype=np.float64)
    if G.shape[1] != S.shape[0]:
        raise ParameterError(
            f"lead field has {G.shape[1]} regions but S has {S.shape[0]} rows"
        )
    return G @ S


def add_noise(x_clean, snr_db, seed):
    """Add white Gaussian sensor noise at the requested SNR (dB)."""
    x_clean = np.asarray(x_clean, dtype=np.float64)
    if snr_db == NOISELESS:
        return x_clean.copy()
    p_signal = float(np.mean(x_clean ** 2))
    if p_signal == 0.0:
        raise ParameterError("cannot set an SNR on a zero-power signal")
    p_noise = p_signal / (10.0 ** (snr_db / 10.0))
    rng = np.random.Generator(np.random.PCG64(seed))
    return x_clean + np.sqrt(p_noise) * rng.standard_normal(x_clean.shape)


def simulate_sample(space, lf, cfg, params=None):
    if params is None:
        params = PRESETS[cfg.preset]
    S, gt = generate_source_activity(space, cfg, params)
    x_clean = project_forward(lf, S)
    X = add_noise(x_clean, cfg.snr_db, seed=cfg.seed ^ 0x5EED)
    return PairedSample(X=X, S=S, ground_truth=gt, config=cfg)


def _config_dict(cfg):
    d = asdict(cfg)
    return dict(d, snr_db="inf") if d["snr_db"] == NOISELESS else d


def config_from_dict(d):
    d = dict(d)
    if d.get("snr_db") == "inf":
        d["snr_db"] = NOISELESS
    return SimulationConfig(**d)


def split_for_index(index):
    """Deterministic 10:1:1 split by index modulo 12."""
    r = index % 12
    return "val" if r == 10 else "test" if r == 11 else "train"


def save_sample(sample, stem):
    """Write X/S tensors plus a JSON sidecar next to ``stem``."""
    stem = Path(stem)
    save_tensor(sample.X, stem.with_suffix(".X.esit"))
    save_tensor(sample.S, stem.with_suffix(".S.esit"))
    sidecar = {
        "X": stem.name + ".X.esit",
        "S": stem.name + ".S.esit",
        "ground_truth": [sorted(fp.regions) for fp in sample.ground_truth],
        "config": _config_dict(sample.config),
    }
    meta_path = stem.with_suffix(".json")
    meta_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True))
    return meta_path


def load_sample(meta_path):
    meta_path = Path(meta_path)
    x_path, s_path, gt, cfg = read_json(meta_path, lambda meta: (
        meta_path.parent / meta["X"], meta_path.parent / meta["S"],
        tuple(RegionSet(frozenset(map(operator.index, r))) for r in meta["ground_truth"]),
        config_from_dict(meta["config"])))
    X, S = (load_tensor(p).astype(np.float64) for p in (x_path, s_path))
    if (X.ndim != 2 or S.ndim != 2 or X.shape[1] != S.shape[1] or not gt or not all(
            0 <= min(fp.regions) and max(fp.regions) < len(S) for fp in gt)):
        raise FormatError(f"{meta_path}: X, S and ground_truth do not fit together")
    return PairedSample(X=X, S=S, ground_truth=gt, config=cfg)


def generate_dataset(space, lf, cfg_grid, n_samples, out_dir, seed_base=0):
    """Write n_samples per grid cell plus a manifest with the 10:1:1 split.

    Per-sample seeds are seed_base + running index, so each sample's bytes
    depend only on its config, never on the samples generated before it.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    index = 0
    for cell, base_cfg in enumerate(cfg_grid):
        for i in range(n_samples):
            cfg = replace(base_cfg, seed=seed_base + index)
            sample = simulate_sample(space, lf, cfg)
            meta_path = save_sample(sample, out_dir / f"sample_{cell:03d}_{i:06d}")
            entries.append({"path": meta_path.name, "split": split_for_index(i),
                            "config": _config_dict(cfg)})
            index += 1
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(entries, indent=2, sort_keys=True))
    return manifest_path


def load_manifest(manifest_path):
    manifest_path = Path(manifest_path)

    def parse(entries):
        if not isinstance(entries, list):
            raise FormatError(f"{manifest_path}: not a list of entries")
        for i, e in enumerate(entries):
            if not (isinstance(e, dict) and "path" in e
                    and e.get("split") in ("train", "val", "test")):
                raise FormatError(f"{manifest_path}: entry {i} lacks 'path' or 'split'")
            e["path"] = str(manifest_path.parent / e["path"])
        return entries
    return read_json(manifest_path, parse)


def iter_split(entries, split):
    """Yield the samples of one split in manifest order, loading each only
    when it is reached; raise DataError if the split has none."""
    found = False
    for e in entries:
        if e["split"] == split:
            found = True
            yield load_sample(e["path"])
    if not found:
        raise DataError(f"manifest has no samples in split '{split}'")
