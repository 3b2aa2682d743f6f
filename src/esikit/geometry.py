"""Synthetic source spaces and lead fields on concentric spheres.

Region centroids sit on a Fibonacci lattice over an 80 mm sphere and are
connected by a symmetrized k-nearest-neighbor graph. Sensors sit on a
100 mm sphere; gains follow an inverse-square law with a small seeded
perturbation and unit-normalized columns.
"""

import functools
import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EsiError, FormatError, ParameterError
from .tensorio import load_tensor, read_json, save_tensor

SOURCE_RADIUS_MM = 80.0
SENSOR_RADIUS_MM = 100.0


@dataclass(frozen=True)
class SourceSpace:
    """Region centroids (mm) plus a symmetric, irreflexive adjacency graph."""

    centroids: np.ndarray            # (n_regions, 3)
    adjacency: tuple                 # tuple of sorted tuples of neighbor indices

    @property
    def n_regions(self):
        return self.centroids.shape[0]

    @functools.cached_property
    def centroid_distances(self):
        """(n_regions, n_regions) Euclidean distances (mm) between centroids,
        built on first use and kept with the space."""
        c = self.centroids
        return np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1)


@dataclass(frozen=True)
class LeadField:
    """Gain matrix mapping source regions to scalp channels."""

    matrix: np.ndarray               # (n_channels, n_regions)


@dataclass(frozen=True)
class RegionSet:
    """Set of region indices (extended-source footprint / ground truth)."""

    regions: frozenset

    def __post_init__(self):
        if not self.regions:
            raise ParameterError("RegionSet must be non-empty")

    def __contains__(self, idx):
        return idx in self.regions

    def __len__(self):
        return len(self.regions)

    def __iter__(self):
        return iter(sorted(self.regions))


def _fibonacci_sphere(n, radius):
    """Quasi-uniform points on a sphere via the golden-angle lattice."""
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
    return radius * pts


def build_synthetic_source_space(n_regions, k_neighbors, seed):
    """Deterministic spherical source space with a symmetrized k-NN graph
    (the lattice has no random part; ``seed`` draws nothing)."""
    if n_regions < 8:
        raise ParameterError(f"n_regions must be >= 8, got {n_regions}")
    if not (1 <= k_neighbors < n_regions):
        raise ParameterError(f"k_neighbors must be in [1, {n_regions}), got {k_neighbors}")
    centroids = _fibonacci_sphere(n_regions, SOURCE_RADIUS_MM)
    d2 = np.sum((centroids[:, None, :] - centroids[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    neighbors = [set() for _ in range(n_regions)]
    order = np.argsort(d2, axis=1, kind="stable")
    for a in range(n_regions):
        for b in order[a, :k_neighbors]:
            neighbors[a].add(int(b))
            neighbors[int(b)].add(a)
    adjacency = tuple(tuple(sorted(s)) for s in neighbors)
    return SourceSpace(centroids=centroids, adjacency=adjacency)


def build_lead_field(space, n_channels, seed):
    """Inverse-square spherical lead field with unit-norm columns."""
    if n_channels < 2:
        raise ParameterError(f"n_channels must be >= 2, got {n_channels}")
    sensors = _fibonacci_sphere(n_channels, SENSOR_RADIUS_MM)
    rng = np.random.Generator(np.random.PCG64(seed))
    diff = sensors[:, None, :] - space.centroids[None, :, :]
    dist2 = np.sum(diff * diff, axis=-1)
    if np.any(dist2 < 1e-9):
        raise EsiError("degenerate geometry: sensor coincides with a centroid")
    # fixed unit dipole orientation (radially outward) modulates the gain sign
    orient = space.centroids / np.linalg.norm(space.centroids, axis=1, keepdims=True)
    cosang = np.einsum("csk,sk->cs", diff / np.sqrt(dist2)[..., None], orient)
    gain = cosang / dist2
    gain = gain * (1.0 + 0.05 * rng.standard_normal(gain.shape))
    norms = np.linalg.norm(gain, axis=0)
    if np.any(norms < 1e-12):
        raise EsiError("degenerate geometry: all-zero lead-field column")
    return LeadField(matrix=gain / norms)


def grow_patch(space, center, extent):
    """Breadth-first footprint: extent k = all regions within k-1 hops."""
    if not (0 <= center < space.n_regions):
        raise ParameterError(f"center {center} out of range")
    if extent < 1:
        raise ParameterError(f"extent must be >= 1, got {extent}")
    return RegionSet(regions=frozenset(hop_distances(space, center, extent - 1)))


def hop_distances(space, center, max_hops):
    """Graph distance from ``center`` for every region within ``max_hops``."""
    dist = {int(center): 0}
    frontier = {int(center)}
    for h in range(1, max_hops + 1):
        frontier = {b for a in frontier for b in space.adjacency[a]} - dist.keys()
        for b in frontier:
            dist[b] = h
    return dist


def save_lead_field(lf, path):
    save_tensor(lf.matrix, path)


def load_lead_field(path):
    mat = load_tensor(path)
    if mat.ndim != 2:
        raise FormatError(f"{path}: lead field must be rank 2, got rank {mat.ndim}")
    return LeadField(matrix=mat.astype(np.float64))


def save_source_space(space, path):
    Path(path).write_text(json.dumps({"centroids": space.centroids.tolist(),
                                      "adjacency": [list(a) for a in space.adjacency]}))


def load_source_space(path):
    def parse(doc):
        space = SourceSpace(
            centroids=np.asarray_chkfinite(doc["centroids"], dtype=np.float64),
            adjacency=tuple(tuple(map(operator.index, a)) for a in doc["adjacency"]))
        n = len(space.adjacency)
        if space.centroids.shape != (n, 3) or not all(
                0 <= b < n for a in space.adjacency for b in a):
            raise ValueError(f"need ({n}, 3) centroids and neighbors in [0, {n})")
        return space
    return read_json(path, parse)
