import json

import numpy as np
import pytest

from esikit.errors import FormatError, ParameterError
from esikit.geometry import (
    RegionSet,
    SourceSpace,
    build_lead_field,
    build_synthetic_source_space,
    grow_patch,
    hop_distances,
    load_lead_field,
    load_source_space,
    save_lead_field,
    save_source_space,
)


def ring_space(n):
    """Explicit ring graph with unit spacing, for hand-checkable BFS."""
    angles = 2 * np.pi * np.arange(n) / n
    centroids = np.stack([np.cos(angles), np.sin(angles), np.zeros(n)], axis=1)
    adjacency = tuple(tuple(sorted(((i - 1) % n, (i + 1) % n))) for i in range(n))
    return SourceSpace(centroids=centroids, adjacency=adjacency)


def test_small_space_invariants():
    space = build_synthetic_source_space(8, 2, seed=0)
    assert space.n_regions == 8
    for a, nbrs in enumerate(space.adjacency):
        assert len(nbrs) >= 2
        assert a not in nbrs
        for b in nbrs:
            assert a in space.adjacency[b]


def test_centroids_on_sphere():
    space = build_synthetic_source_space(64, 4, seed=3)
    radii = np.linalg.norm(space.centroids, axis=1)
    np.testing.assert_allclose(radii, 80.0, atol=1e-9)


def test_space_determinism(tmp_path):
    a = build_synthetic_source_space(64, 4, seed=7)
    b = build_synthetic_source_space(64, 4, seed=7)
    save_source_space(a, tmp_path / "a.json")
    save_source_space(b, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_space_parameter_errors():
    with pytest.raises(ParameterError):
        build_synthetic_source_space(4, 2, seed=0)
    with pytest.raises(ParameterError):
        build_synthetic_source_space(8, 0, seed=0)
    with pytest.raises(ParameterError):
        build_synthetic_source_space(8, 8, seed=0)


def test_lead_field_columns_unit_norm():
    space = build_synthetic_source_space(8, 2, seed=0)
    lf = build_lead_field(space, 4, seed=0)
    assert lf.matrix.shape == (4, 8)
    np.testing.assert_allclose(np.linalg.norm(lf.matrix, axis=0), 1.0, atol=1e-9)


def test_lead_field_determinism():
    space = build_synthetic_source_space(16, 3, seed=1)
    a = build_lead_field(space, 8, seed=5)
    b = build_lead_field(space, 8, seed=5)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_lead_field_needs_two_channels():
    space = build_synthetic_source_space(8, 2, seed=0)
    with pytest.raises(ParameterError):
        build_lead_field(space, 1, seed=0)


def test_grow_patch_extent_one():
    space = build_synthetic_source_space(16, 3, seed=0)
    assert set(grow_patch(space, 5, 1).regions) == {5}


def test_grow_patch_ring_oracle():
    space = ring_space(8)
    assert set(grow_patch(space, 3, 2).regions) == {2, 3, 4}
    assert set(grow_patch(space, 0, 3).regions) == {6, 7, 0, 1, 2}


def test_grow_patch_monotone():
    space = build_synthetic_source_space(64, 4, seed=2)
    for center in (0, 17, 63):
        prev = set()
        for extent in (1, 2, 3, 4):
            cur = set(grow_patch(space, center, extent).regions)
            assert prev <= cur
            prev = cur


def test_grow_patch_matches_brute_force_bfs():
    space = build_synthetic_source_space(32, 3, seed=4)
    for center in (0, 9, 31):
        for extent in (1, 2, 3):
            # brute force: all-pairs hop count via repeated neighbor expansion
            reach = {center}
            for _ in range(extent - 1):
                reach |= {b for a in reach for b in space.adjacency[a]}
            assert set(grow_patch(space, center, extent).regions) == reach


def test_grow_patch_is_hop_distances_footprint():
    space = build_synthetic_source_space(32, 3, seed=4)
    for center in range(space.n_regions):
        for extent in (1, 2, 3, 4):
            assert grow_patch(space, center, extent).regions == \
                set(hop_distances(space, center, extent - 1))


def test_grow_patch_errors():
    space = build_synthetic_source_space(8, 2, seed=0)
    with pytest.raises(ParameterError):
        grow_patch(space, 8, 1)
    with pytest.raises(ParameterError):
        grow_patch(space, 0, 0)


def test_hop_distances_ring():
    space = ring_space(6)
    d = hop_distances(space, 0, 2)
    assert d == {0: 0, 1: 1, 5: 1, 2: 2, 4: 2}


def test_region_set_non_empty():
    with pytest.raises(ParameterError):
        RegionSet(frozenset())


def test_lead_field_round_trip(tmp_path):
    space = build_synthetic_source_space(8, 2, seed=0)
    lf = build_lead_field(space, 4, seed=0)
    save_lead_field(lf, tmp_path / "lf.esit")
    back = load_lead_field(tmp_path / "lf.esit")
    np.testing.assert_array_equal(back.matrix,
                                  lf.matrix.astype(np.float32).astype(np.float64))


def test_lead_field_load_bad_magic(tmp_path):
    p = tmp_path / "lf.esit"
    p.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(FormatError):
        load_lead_field(p)


def test_source_space_round_trip(tmp_path):
    space = build_synthetic_source_space(16, 3, seed=9)
    save_source_space(space, tmp_path / "s.json")
    back = load_source_space(tmp_path / "s.json")
    np.testing.assert_array_equal(back.centroids, space.centroids)
    assert back.adjacency == space.adjacency
    # file is plain JSON
    json.loads((tmp_path / "s.json").read_text())
