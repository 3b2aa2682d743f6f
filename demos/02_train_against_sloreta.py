"""Train the learned solver on a small synthetic dataset and compare it with
the sLORETA baseline on the held-out test split.

Deliberately tiny so it finishes in a couple of minutes; bump n_samples and
epochs for a real run (see tests/test_acceptance.py for the full recipe).

Run from the repo root:  python3 demos/02_train_against_sloreta.py
"""

import tempfile
from pathlib import Path

from esikit import metrics as mx
from esikit.geometry import build_lead_field, build_synthetic_source_space
from esikit.model import FairConfig, fair_solver, load_model, solve_split, train
from esikit.nmm import SimulationConfig, generate_dataset, load_manifest
from esikit.sloreta import DEFAULT_LAMBDA, sloreta_solver

workdir = Path(tempfile.mkdtemp(prefix="esikit_demo_"))
print(f"working in {workdir}")

space = build_synthetic_source_space(64, 4, seed=0)
lf = build_lead_field(space, 32, seed=1)
sim = SimulationConfig(snr_db=5.0, n_sources=1, extent=2, n_timepoints=128,
                       sample_rate=250.0, seed=0)
manifest = generate_dataset(space, lf, [sim], 120, workdir / "data", seed_base=0)
entries = load_manifest(manifest)
print(f"dataset: {len(entries)} samples "
      f"({sum(e['split'] == 'train' for e in entries)} train)")

cfg = FairConfig(n_channels=32, n_regions=64, n_timepoints=128, lr=1e-3)
result = train(entries, cfg, epochs=5, seed=0, out_dir=workdir / "train")
for epoch, tr, va, lr in result.history:
    print(f"epoch {epoch}: train {tr:.4f}  val {va:.4f}  lr {lr:.1e}")

params, cfg, _ = load_model(result.checkpoint_dir)
solvers = {"learned": fair_solver(params, cfg),        # fragments in pairs
           "sloreta": sloreta_solver(lf, DEFAULT_LAMBDA)}   # kernel built once
reports = {name: [] for name in solvers}
# one read of each test sample; every solver's estimate of it comes with it
for sample, estimates in solve_split(entries, list(solvers.values()), space.n_regions):
    for name, s_hat in zip(solvers, estimates):
        reports[name].append(mx.evaluate(s_hat, sample, space))

print(f"\n{'solver':<10}{'precision':>10}{'recall':>8}{'LE mm':>8}"
      f"{'SD mm':>8}{'nMSE':>8}")
for name, reps in reports.items():
    agg = mx.aggregate(reps)
    print(f"{name:<10}{agg['precision']['mean']:>10.1f}"
          f"{agg['recall']['mean']:>8.1f}{agg['le_mm']['mean']:>8.2f}"
          f"{agg['sd_mm']['mean']:>8.2f}{agg['nmse']['mean']:>8.3f}")
print("\n(5 epochs on 100 training samples is far from converged; "
      "the acceptance experiment uses 600 samples / 30 epochs)")
