"""The benchmark's workloads: their inputs, their ``esi`` requests, output checks.

Every workload drives the public entry point in-process
(``esikit.cli.main([...])``) as a closed loop with one client: a round of
requests starts when the previous round has returned, and each request when
the one before it has. All of them use the toy geometry of the acceptance
suite (64 regions, k=4, 32 channels, 128 timepoints at 250 Hz) and
``FairConfig`` defaults (batch size 16).

The workloads are split so that each layer an optimisation targets does most
of its work in one workload and little or none in another (``layers.json``
holds the predictions):

* ``simulate`` -- ``esi simulate`` on a mixed grid; the only workload that
  runs the Jansen-Rit integrator.
* ``train``    -- ``esi train`` on surrogate data written in set-up; the only
  workload that runs backward/BPTT and Adam.
* ``infer``    -- rounds of ``esi eval --solver fair``, ``esi eval --solver
  sloreta`` and single ``esi localize`` calls on fragments written in set-up,
  with a checkpoint from ``init_params``: the model forward-only at batch 1,
  sLORETA, the metrics and the per-call cost of ``localize``.
"""

import contextlib
import csv
import io
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from esikit import cli, geometry, metrics, model, nmm, sloreta, tensorio

N_REGIONS, K_NEIGHBORS, N_CHANNELS = 64, 4, 32
N_TIMEPOINTS, SAMPLE_RATE = 128, 250.0

# (snr_db, n_sources, extent). Each source count appears with each SNR once,
# so a call integrates 18 oscillators, 1 to 3 per sample. Extent 3 only fits
# one source: two 16-region footprints would cover half the 64 regions.
GRID = (
    (0, 1, 3), (5, 1, 2), (10, 1, 1),
    (0, 2, 2), (5, 2, 1), (10, 2, 2),
    (0, 3, 1), (5, 3, 2), (10, 3, 1),
)


@dataclass(frozen=True)
class Sizes:
    """How much work a round does; the self-check shrinks these."""
    grid: tuple = GRID            # cells of one `esi simulate` call
    train_samples: int = 96       # 80 train / 8 val / 8 test
    train_epochs: int = 2
    # An infer round spends about a third of its time in each of its phases.
    fair_fragments: int = 12      # scored by each `esi eval --solver fair`
    sloreta_fragments: int = 256  # scored by each `esi eval --solver sloreta`
    localizes_per_round: int = 4
    setup_repeats: int = 9
    # rounds in each pass of a traced run
    trace_rounds: tuple = (("simulate", 1), ("train", 1), ("infer", 6))


TINY = Sizes(grid=((5, 1, 1),), train_samples=24, train_epochs=1,
             fair_fragments=4, sloreta_fragments=8, localizes_per_round=2,
             setup_repeats=1,
             trace_rounds=(("simulate", 1), ("train", 1), ("infer", 1)))


def esi(argv):
    """Run one ``esi`` command in-process; returns its exit code.

    The command's own output is captured and dropped. An exception that
    escapes ``cli.main`` is reported on stderr and returned as -1.
    """
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main([str(a) for a in argv])
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return -1


# ---------------------------------------------------------------------------
# inputs


def write_config(path, seed, workdir, grid=GRID, epochs=1):
    doc = {
        "seed": seed,
        "geometry": {"n_regions": N_REGIONS, "k_neighbors": K_NEIGHBORS,
                     "n_channels": N_CHANNELS},
        "simulation": {
            "n_timepoints": N_TIMEPOINTS, "sample_rate": SAMPLE_RATE,
            "preset": "alpha",
            "grid": [{"snr_db": s, "n_sources": n, "extent": e}
                     for s, n, e in grid],
            "n_samples_per_cell": 1,
        },
        "model": {},
        "training": {"epochs": epochs},
        "evaluation": {},
        "paths": {"workdir": str(workdir)},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2))
    return path


def _surrogate_sample(space, lf, cfg, rng):
    """Alpha-band sinusoids on non-overlapping ``grow_patch`` footprints.

    Stands in for Jansen-Rit output so that data for the training and
    inference workloads costs milliseconds, not the integrator's seconds.
    """
    S = np.zeros((space.n_regions, cfg.n_timepoints))
    t = np.arange(cfg.n_timepoints) / cfg.sample_rate
    footprints, occupied = [], set()
    while len(footprints) < cfg.n_sources:
        center = int(rng.integers(space.n_regions))
        fp = geometry.grow_patch(space, center, cfg.extent)
        if occupied & set(fp.regions):
            continue
        occupied |= set(fp.regions)
        footprints.append(fp)
        freq = rng.uniform(8.0, 12.0)
        wave = np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        wave *= 1.0 + 0.3 * np.sin(2 * np.pi * rng.uniform(0.5, 2.0) * t)
        wave -= wave.mean()
        hops = geometry.hop_distances(space, center, cfg.extent - 1)
        for region in fp:
            S[region] = nmm.HOP_DECAY ** hops[region] * wave
    X = nmm.add_noise(nmm.project_forward(lf, S), cfg.snr_db, seed=cfg.seed)
    return nmm.PairedSample(X=X, S=S, ground_truth=tuple(footprints), config=cfg)


def write_dataset(out_dir, seed, n_samples, split=None):
    """Surrogate dataset plus geometry files and a manifest in the format
    ``esi simulate`` writes; ``split=None`` uses the documented 10:1:1 split."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    space = geometry.build_synthetic_source_space(N_REGIONS, K_NEIGHBORS, seed)
    lf = geometry.build_lead_field(space, N_CHANNELS, seed=seed + 1)
    geometry.save_source_space(space, out_dir / "space.json")
    geometry.save_lead_field(lf, out_dir / "leadfield.esit")
    rng = np.random.Generator(np.random.PCG64(seed))
    entries = []
    for i in range(n_samples):
        snr, n_src, extent = GRID[i % len(GRID)]
        cfg = nmm.SimulationConfig(snr_db=float(snr), n_sources=n_src,
                                   extent=extent, n_timepoints=N_TIMEPOINTS,
                                   sample_rate=SAMPLE_RATE, seed=seed * 7919 + i)
        meta = nmm.save_sample(_surrogate_sample(space, lf, cfg, rng),
                               out_dir / f"sample_{i:06d}")
        entries.append({"path": meta.name,
                        "split": split or nmm.split_for_index(i),
                        "config": asdict(cfg)})
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2, sort_keys=True))
    return manifest


def write_checkpoint(out_dir, seed):
    cfg = model.FairConfig(n_channels=N_CHANNELS, n_regions=N_REGIONS,
                           n_timepoints=N_TIMEPOINTS)
    model.save_checkpoint(out_dir, model.init_params(cfg, seed), cfg)
    return Path(out_dir)


# ---------------------------------------------------------------------------
# workloads


def _exit_ok(rc):
    return [] if rc == 0 else [f"exit code {rc}"]


class Workload:
    """A closed loop of rounds of ``esi`` requests.

    ``prepare`` writes the inputs; it is timed as set-up. ``requests(i)``
    lists round ``i`` as (phase, argv, samples, check) tuples, where
    ``check(rc)`` runs right after that request, outside the timing, and
    returns its failed output checks. ``check_run`` returns the failed
    checks of the run as a whole.
    """
    name = ""
    warmup = False          # the first round is not timed

    def __init__(self, sizes, seed):
        self.sizes = sizes
        self.seed = seed

    def prepare(self, root):
        raise NotImplementedError

    def requests(self, i):
        raise NotImplementedError

    def check_run(self):
        return []


class Simulate(Workload):
    name = "simulate"

    def prepare(self, root):
        self.root = Path(root)
        self.config = write_config(self.root / "config.json", self.seed,
                                   self.root / "unused", self.sizes.grid)
        self.last = None

    def requests(self, i):
        seed = self.seed * 1009 + i
        argv = ["simulate", "--config", self.config, "--out", self.root / "sim",
                "--seed", seed]
        return [("simulate", argv, len(self.sizes.grid),
                 lambda rc: self._check(seed, rc))]

    def _check(self, seed, rc):
        bad = _exit_ok(rc)
        if bad:
            return bad
        out = self.root / "sim"
        entries = nmm.load_manifest(out / "manifest.json")
        if len(entries) != len(self.sizes.grid):
            return [f"manifest has {len(entries)} samples, "
                    f"expected {len(self.sizes.grid)}"]
        G = geometry.load_lead_field(out / "leadfield.esit").matrix
        for e in entries:
            sample = nmm.load_sample(e["path"])
            name = Path(e["path"]).name
            if not (np.all(np.isfinite(sample.X)) and np.all(np.isfinite(sample.S))):
                bad.append(f"{name} is not finite")
                continue
            clean = G @ sample.S
            noise = sample.X - clean
            snr = 10 * math.log10(np.mean(clean ** 2) / np.mean(noise ** 2))
            if abs(snr - sample.config.snr_db) > 0.5:
                bad.append(f"{name}: SNR {snr:.2f} dB, configured "
                           f"{sample.config.snr_db} dB")
            fps = [fp.regions for fp in sample.ground_truth]
            if (len(fps) != sample.config.n_sources
                    or len(frozenset().union(*fps)) != sum(map(len, fps))):
                bad.append(f"{name}: footprints overlap or are missing")
        self.last = (seed, entries)
        return bad

    def check_run(self):
        """Re-simulate the last call's sample with the most sources by a
        direct ``simulate_sample`` call: once saved it must be byte-identical,
        so a sample cannot depend on the batch it was integrated in."""
        if self.last is None:
            return ["no call produced output to re-simulate"]
        seed, entries = self.last
        entry = max(entries, key=lambda e: e["config"]["n_sources"])
        space = geometry.build_synthetic_source_space(N_REGIONS, K_NEIGHBORS, seed)
        lf = geometry.build_lead_field(space, N_CHANNELS, seed=seed + 1)
        cfg = nmm.config_from_dict(entry["config"])
        stem = Path(entry["path"]).with_suffix("")
        again = self.root / "resim" / stem.name
        again.parent.mkdir(exist_ok=True)
        nmm.save_sample(nmm.simulate_sample(space, lf, cfg), again)
        for suffix in (".X.esit", ".S.esit", ".json"):
            if (stem.with_suffix(suffix).read_bytes()
                    != again.with_suffix(suffix).read_bytes()):
                return [f"re-simulated {stem.name}{suffix} differs"]
        return []


class Train(Workload):
    name = "train"

    def prepare(self, root):
        self.root = Path(root)
        self.manifest = write_dataset(self.root / "data", self.seed,
                                      self.sizes.train_samples)
        self.config = write_config(self.root / "config.json", self.seed,
                                   self.root / "unused",
                                   epochs=self.sizes.train_epochs)
        n_train = sum(e["split"] == "train"
                      for e in json.loads(self.manifest.read_text()))
        self.per_call = n_train * self.sizes.train_epochs

    def requests(self, i):
        argv = ["train", "--config", self.config, "--manifest", self.manifest,
                "--out", self.root / "run", "--seed", self.seed * 1009 + i]
        return [("train", argv, self.per_call, self._check)]

    def _check(self, rc):
        bad = _exit_ok(rc)
        if bad:
            return bad
        run = self.root / "run"
        with open(run / "train_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        epochs = self.sizes.train_epochs
        if [int(r["epoch"]) for r in rows] != list(range(1, epochs + 1)):
            return [f"log has {len(rows)} epoch rows, expected {epochs}"]
        losses = [float(r[k]) for r in rows for k in ("train_loss", "val_loss")]
        if not all(map(math.isfinite, losses)):
            return ["non-finite loss in the log"]
        best_epoch = json.loads((run / "best" / "model.json").read_text())["epoch"]
        best_val = float(rows[best_epoch - 1]["val_loss"])
        if best_val > float(rows[0]["val_loss"]):
            return [f"best val {best_val} above epoch-1 val"]
        return []


class Infer(Workload):
    name = "infer"
    warmup = True

    def prepare(self, root):
        self.root = Path(root)
        data = self.root / "data"
        self.manifests = {"sloreta": write_dataset(data, self.seed,
                                                   self.sizes.sloreta_fragments,
                                                   split="test")}
        entries = json.loads(self.manifests["sloreta"].read_text())
        self.manifests["fair"] = data / "manifest_fair.json"
        self.manifests["fair"].write_text(
            json.dumps(entries[:self.sizes.fair_fragments], indent=2))
        self.fragments = [data / e["path"].replace(".json", ".X.esit")
                          for e in entries]
        self.config = write_config(self.root / "config.json", self.seed, data)
        self.checkpoint = write_checkpoint(self.root / "ckpt", self.seed)
        self.n_fragments = {"fair": self.sizes.fair_fragments,
                            "sloreta": self.sizes.sloreta_fragments}

    def requests(self, i):
        reqs = []
        for solver in ("fair", "sloreta"):
            argv = ["eval", "--config", self.config, "--manifest",
                    self.manifests[solver], "--out", self.root / solver,
                    "--solver", solver, "--checkpoint", self.checkpoint]
            reqs.append((f"eval_{solver}", argv, self.n_fragments[solver],
                         lambda rc, s=solver: self._check_eval(s, rc)))
        for j in range(self.sizes.localizes_per_round):
            k = i * self.sizes.localizes_per_round + j
            argv = ["localize", "--config", self.config, "--checkpoint",
                    self.checkpoint, "--fragment",
                    self.fragments[k % len(self.fragments)], "--out",
                    self.root / "loc"]
            reqs.append(("localize", argv, 1,
                         lambda rc, k=k, j=j: self._check_localize(k, j == 0, rc)))
        return reqs

    def _summary(self, solver):
        doc = json.loads((self.root / solver / "eval_summary.json").read_text())
        return doc[solver]

    def _check_eval(self, solver, rc):
        bad = _exit_ok(rc)
        if bad:
            return bad
        n = self._summary(solver)["nmse"]["n"]
        with open(self.root / solver / f"eval_{solver}.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        if n != self.n_fragments[solver] or rows != n:
            return [f"{solver} summary n={n}, csv rows={rows}, "
                    f"fragments={self.n_fragments[solver]}"]
        return []

    def _check_localize(self, k, recompute, rc):
        """Check the estimate for fragment ``k``; with ``recompute`` (the
        first call of each round) also against a direct ``model.forward``."""
        bad = _exit_ok(rc)
        if bad:
            return bad
        out = self.root / "loc"
        est = tensorio.load_tensor(out / "estimate.esit")
        if est.shape != (N_REGIONS, N_TIMEPOINTS) or not np.all(np.isfinite(est)):
            return [f"estimate has shape {est.shape} or is not finite"]
        if not (out / "estimate.svg").stat().st_size:
            return ["empty topography"]
        if recompute:
            params, cfg, _, _ = model.load_checkpoint(self.checkpoint)
            frag = tensorio.load_tensor(self.fragments[k % len(self.fragments)])
            direct = model.forward(frag.astype(np.float64), params, cfg).data
            tol = 2.0 ** -23 * float(np.max(np.abs(direct)))
            if not np.allclose(est, direct, rtol=2.0 ** -23, atol=tol):
                return [f"estimate {k} differs from model.forward by "
                        f"{float(np.max(np.abs(est - direct)))}"]
        return []

    def check_run(self):
        """The sLORETA summary must match ``sloreta_solve`` +
        ``metrics.evaluate`` recomputed here, to 1e-9 relative."""
        data = self.root / "data"
        space = geometry.load_source_space(data / "space.json")
        lf = geometry.load_lead_field(data / "leadfield.esit")
        samples = [nmm.load_sample(e["path"])
                   for e in nmm.load_manifest(self.manifests["sloreta"])]
        direct = metrics.aggregate([
            metrics.evaluate(sloreta.sloreta_solve(lf, s.X), s, space)
            for s in samples])
        summary = self._summary("sloreta")
        for name, stats in direct.items():
            for key in ("mean", "std", "n"):
                a, b = stats[key], summary[name][key]
                if (a is None) != (b is None) or (
                        a is not None and not math.isclose(a, b, rel_tol=1e-9,
                                                           abs_tol=1e-12)):
                    return [f"sLORETA summary {name}.{key}={b}, recomputed {a}"]
        return []


WORKLOADS = {w.name: w for w in (Simulate, Train, Infer)}
