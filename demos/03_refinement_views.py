"""Peek inside one refinement block: spectral view, temporal view, fusion,
and key-patch selection, on a hand-made two-channel fragment.

Run from the repo root:  python3 demos/03_refinement_views.py
"""

import numpy as np

from esikit.model import fuse, select_key_patch, spectral_refine, temporal_refine
from esikit.patches import extract_patches

rng = np.random.Generator(np.random.PCG64(0))

# channel 0: a clean 10 Hz tone; channel 1: the same tone buried in noise
t = np.arange(128) / 250.0
tone = np.sin(2 * np.pi * 10.0 * t)
X = np.stack([tone, tone + 2.0 * rng.standard_normal(128)])

P = extract_patches(X, 16, 8)[None]         # add a batch axis: (1, 2, 15, 16)
print(f"patch grid: {P.shape} (batch, channels, patches, patch length)")

P_S = spectral_refine(P, tau=0.1).data      # the views return Vars
P_T = temporal_refine(P, tau=0.1).data
P_L = fuse(P_S, P_T, alpha=0.5).data
print(f"spectral view range: [{P_S.min():.3f}, {P_S.max():.3f}]")
print(f"temporal view sums (should be 1): "
      f"{P_T.sum(-1).min():.6f}...{P_T.sum(-1).max():.6f}")

# The temperature softmax concentrates spectral mass on the dominant bins,
# so the refined views of the clean and noisy channel look much more alike
# than the raw patches do.
def channel_gap(grid):
    return float(np.linalg.norm(grid[0, 0] - grid[0, 1]))

print(f"clean-vs-noisy gap, raw patches:    {channel_gap(P):.3f}")
print(f"clean-vs-noisy gap, fused view:     {channel_gap(P_L):.3f}")

# Key-patch selection picks the highest-energy patch per channel.
keys = select_key_patch(P_L)
energies = np.sum(P_L * P_L, axis=-1)
print(f"key patches per channel: {keys[0].tolist()}")
print(f"energy of channel 0 patches: {np.round(energies[0, 0], 4).tolist()}")
