import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from esikit.errors import (
    DataError,
    FormatError,
    InstabilityError,
    ParameterError,
    PlacementError,
)
from esikit.geometry import (
    RegionSet,
    build_lead_field,
    build_synthetic_source_space,
    grow_patch,
)
from esikit.nmm import (
    ALPHA_PRESET,
    NOISELESS,
    SPIKE_PRESET,
    SimulationConfig,
    add_noise,
    generate_dataset,
    generate_source_activity,
    iter_split,
    load_manifest,
    load_sample,
    project_forward,
    save_sample,
    simulate_jansen_rit,
    simulate_sample,
    split_for_index,
)

RNG = np.random.Generator(np.random.PCG64(31))


@pytest.fixture(scope="module")
def space():
    return build_synthetic_source_space(32, 3, seed=0)


@pytest.fixture(scope="module")
def lf(space):
    return build_lead_field(space, 16, seed=1)


def dominant_frequency(wave, sample_rate):
    spec = np.abs(np.fft.rfft(wave))
    freqs = np.fft.rfftfreq(len(wave), d=1.0 / sample_rate)
    spec[0] = 0.0
    return freqs[int(np.argmax(spec))]


def test_alpha_preset_peaks_in_alpha_band():
    wave = simulate_jansen_rit(ALPHA_PRESET, 500, 250.0, seed=0)
    assert 8.0 <= dominant_frequency(wave, 250.0) <= 12.0
    assert abs(wave.mean()) < 1e-9


def test_zero_input_decays_to_fixed_point():
    quiet = replace(ALPHA_PRESET, input_mean=0.0, input_std=0.0)
    wave = simulate_jansen_rit(quiet, 200, 200.0, seed=0)
    assert float(np.var(wave[-50:])) < 1e-6


def test_waveform_determinism():
    a = simulate_jansen_rit(ALPHA_PRESET, 64, 128.0, seed=9)
    b = simulate_jansen_rit(ALPHA_PRESET, 64, 128.0, seed=9)
    np.testing.assert_array_equal(a, b)
    c = simulate_jansen_rit(ALPHA_PRESET, 64, 128.0, seed=10)
    assert not np.array_equal(a, c)


def test_rk4_dt_halving_converges():
    coarse = simulate_jansen_rit(ALPHA_PRESET, 250, 250.0, seed=3)
    fine = simulate_jansen_rit(replace(ALPHA_PRESET, dt=5e-5), 250, 250.0, seed=3)
    rel = np.linalg.norm(coarse - fine) / np.linalg.norm(fine)
    assert rel < 0.01


# sha256 of simulate_jansen_rit(...).tobytes(). Existing datasets and the
# determinism checks depend on these exact bytes, so a faster integrator must
# reproduce them, not just approximate them.
GOLDEN_WAVEFORMS = [
    ("alpha", ALPHA_PRESET, 256, 250.0, 0,
     "cb94105aecadec313c9764f27eaeed35ad3bfef8df7b0c60b0f342176ec19423"),
    ("alpha", ALPHA_PRESET, 256, 250.0, 7,
     "3be192a813bc015eca310c8003c3b8a274e36c5dfe98ff2ddbd38315b83c09b5"),
    ("spike", SPIKE_PRESET, 256, 250.0, 0,
     "fe490092af07a67311b87e1ed7fb25f49507df747b7dda0c2760ca130ce4264b"),
    ("spike", SPIKE_PRESET, 256, 250.0, 7,
     "a169598a7ded0881f666abf227bf32baa84b99b56bf216798577243fb10fa770"),
    ("dt5e-5", replace(ALPHA_PRESET, dt=5e-5), 128, 250.0, 3,
     "b719194555f6c56f0eefd15ccfd860a424c13ea5a603f6713c2b8cdd20430eb7"),
    # 1 / (300 Hz * dt) = 33.33 steps per sample: a non-integer schedule
    ("300hz", ALPHA_PRESET, 150, 300.0, 4,
     "f5588f7de3e19a365998e12c81af9fef7a3504459da2845625ddf5fb2556d112"),
    # no burn-in: the first sample is recorded at step k = 0
    ("burn0", replace(ALPHA_PRESET, burn_in=0.0), 128, 250.0, 5,
     "13d0ca0515b213fc1fbd8ccca85b34150a4877fd902c6ee7e65c38427d3f972d"),
    # dt = INPUT_DT: one step per drive value
    ("dt1e-3", replace(ALPHA_PRESET, dt=1e-3), 128, 250.0, 6,
     "13e4a6eefc29724fb0f1c0c8ea6568f1ba4ed4ab8a87df8a911bcc46fc7623af"),
    # 1000 Hz: an integer schedule of 10 steps per sample
    ("1000hz", ALPHA_PRESET, 256, 1000.0, 8,
     "3d56094c7388691fad7db07f52b1ffdcaea65975a8ff85a48d9a3f2e51da5c54"),
]


@pytest.mark.parametrize("params,n,rate,seed,digest",
                         [case[1:] for case in GOLDEN_WAVEFORMS],
                         ids=[f"{c[0]}-seed{c[4]}" for c in GOLDEN_WAVEFORMS])
def test_waveform_golden_bits(params, n, rate, seed, digest):
    wave = simulate_jansen_rit(params, n, rate, seed)
    assert hashlib.sha256(wave.tobytes()).hexdigest() == digest


def test_unstable_parameters_raise_instability():
    # a valid parameter set whose drive pushes y1 past the 1e6 mV guard
    runaway = replace(ALPHA_PRESET, input_mean=1e9, burn_in=0.1)
    with pytest.raises(InstabilityError) as err:
        simulate_jansen_rit(runaway, 32, 250.0, seed=0)
    # the exact message pins the step on which the guard trips
    assert str(err.value) == (
        f"Jansen-Rit integration blew up at t=0.0027s with {runaway}")


def test_simulate_parameter_errors():
    with pytest.raises(ParameterError):
        simulate_jansen_rit(ALPHA_PRESET, 64, 50.0, seed=0)
    with pytest.raises(ParameterError):
        replace(ALPHA_PRESET, A=-1.0)
    with pytest.raises(ParameterError):
        replace(ALPHA_PRESET, dt=1e-2)


# ---------------------------------------------------------------------------
# source placement


def cfg(space, **kw):
    base = dict(snr_db=5.0, n_sources=1, extent=1, n_timepoints=32,
                sample_rate=100.0, seed=0)
    base.update(kw)
    return SimulationConfig(**base)


def test_single_point_source_support(space):
    S, gt = generate_source_activity(space, cfg(space), ALPHA_PRESET)
    assert len(gt) == 1 and len(gt[0]) == 1
    nonzero = set(np.flatnonzero(np.any(S != 0.0, axis=1)).tolist())
    assert nonzero == set(gt[0].regions)


def test_two_extended_sources_disjoint(space):
    S, gt = generate_source_activity(space, cfg(space, n_sources=2, extent=2, seed=4),
                                     ALPHA_PRESET)
    assert len(gt) == 2
    a, b = set(gt[0].regions), set(gt[1].regions)
    assert not (a & b)
    nonzero = set(np.flatnonzero(np.any(S != 0.0, axis=1)).tolist())
    assert nonzero == a | b
    # footprints agree with the BFS oracle for some center inside each set
    for fp in gt:
        centers = [c for c in fp if set(grow_patch(space, c, 2).regions)
                   == set(fp.regions)]
        assert centers


def test_hop_decay_scaling(space):
    S, gt = generate_source_activity(space, cfg(space, extent=2, seed=2),
                                     ALPHA_PRESET)
    regions = sorted(gt[0].regions)
    norms = {r: np.linalg.norm(S[r]) for r in regions}
    center = max(norms, key=norms.get)
    for r in regions:
        if r != center:
            np.testing.assert_allclose(norms[r], 0.7 * norms[center], rtol=1e-9)


def test_footprint_budget_precondition(space):
    with pytest.raises(ParameterError):
        generate_source_activity(space, cfg(space, n_sources=8, extent=3),
                                 ALPHA_PRESET)


def test_placement_exhaustion_raises():
    # a space so small that 3 extent-2 sources cannot avoid overlap often
    tiny = build_synthetic_source_space(16, 2, seed=0)
    with pytest.raises((PlacementError, ParameterError)):
        generate_source_activity(tiny, cfg(tiny, n_sources=3, extent=2),
                                 ALPHA_PRESET)


# ---------------------------------------------------------------------------
# forward projection and noise


def test_project_forward_matches_naive_matmul(lf):
    S = RNG.standard_normal((32, 16))
    X = project_forward(lf, S)
    G = lf.matrix
    naive = np.zeros((16, 16))
    for c in range(16):
        for t in range(16):
            naive[c, t] = sum(G[c, s] * S[s, t] for s in range(32))
    np.testing.assert_allclose(X, naive, atol=1e-6)


def test_project_forward_linearity(lf):
    S1 = RNG.standard_normal((32, 8))
    S2 = RNG.standard_normal((32, 8))
    lhs = project_forward(lf, 2.0 * S1 + 3.0 * S2)
    rhs = 2.0 * project_forward(lf, S1) + 3.0 * project_forward(lf, S2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-12)


def test_project_forward_impulse_column(lf):
    S = np.zeros((32, 5))
    S[7, 3] = 1.0
    X = project_forward(lf, S)
    np.testing.assert_allclose(X[:, 3], lf.matrix[:, 7], atol=1e-12)
    np.testing.assert_array_equal(X[:, :3], 0.0)


def test_project_forward_shape_error(lf):
    with pytest.raises(ParameterError):
        project_forward(lf, np.zeros((31, 8)))


def test_noiseless_sentinel():
    x = RNG.standard_normal((4, 16))
    np.testing.assert_array_equal(add_noise(x, NOISELESS, seed=0), x)


@pytest.mark.parametrize("snr_db", [-5.0, 5.0, 15.0])
def test_realized_snr_within_tolerance(snr_db):
    x = RNG.standard_normal((32, 500))          # 16000 entries
    noisy = add_noise(x, snr_db, seed=7)
    noise = noisy - x
    realized = 10.0 * np.log10(np.mean(x ** 2) / np.mean(noise ** 2))
    assert abs(realized - snr_db) < 0.2


def test_noise_zero_power_error():
    with pytest.raises(ParameterError):
        add_noise(np.zeros((4, 8)), 5.0, seed=0)


# ---------------------------------------------------------------------------
# dataset plumbing


def test_split_ratio():
    splits = [split_for_index(i) for i in range(12)]
    assert splits.count("train") == 10
    assert splits.count("val") == 1
    assert splits.count("test") == 1


def test_sample_round_trip(tmp_path, space, lf):
    sample = simulate_sample(space, lf, cfg(space, seed=11))
    meta = save_sample(sample, tmp_path / "s0")
    back = load_sample(meta)
    np.testing.assert_allclose(back.X, sample.X, atol=1e-4)
    np.testing.assert_allclose(back.S, sample.S, atol=1e-4)
    assert back.ground_truth == sample.ground_truth
    assert back.config == sample.config


@pytest.mark.parametrize("malform", [
    lambda s: replace(s, X=s.X[None]),
    lambda s: replace(s, S=s.S[:, :-1]),
    lambda s: replace(s, ground_truth=()),
    lambda s: replace(s, ground_truth=(RegionSet(frozenset([len(s.S)])),)),
], ids=["X_of_rank_3", "S_one_sample_short", "no_source", "region_past_S"])
def test_load_sample_parts_must_fit_together(tmp_path, space, lf, malform):
    sample = simulate_sample(space, lf, cfg(space, seed=11))
    meta = save_sample(malform(sample), tmp_path / "s0")
    with pytest.raises(FormatError, match="do not fit together"):
        load_sample(meta)


def _pathlib_error(meta_path, name):
    """The TypeError pathlib raises on joining ``name`` to ``meta_path``'s
    directory, or None."""
    try:
        Path(meta_path).parent / name
    except TypeError as err:
        return err


def test_manifest_and_sidecar_paths_read_as_pathlib_writes_them(tmp_path, space, lf,
                                                                monkeypatch):
    manifest = generate_dataset(space, lf, [cfg(space)], 12, tmp_path / "d",
                                seed_base=100)
    doc = json.loads(manifest.read_text())
    names = [e["path"] for e in doc]
    for e, spelled in zip(doc, ["./{}", ".//{}", "sub/../{}", "{}/", "./sub/./../{}"]):
        e["path"] = spelled.format(e["path"])
    doc[5]["path"] = str(manifest.parent / names[5])
    odd = manifest.parent / "odd.json"
    odd.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    for given in [odd, str(odd), f"{tmp_path}//d/./odd.json", "d/odd.json", "./d//odd.json"]:
        paths = [e["path"] for e in load_manifest(given)]
        assert paths == [str(Path(given).parent / e["path"]) for e in doc], given
        assert load_sample(paths[0]).config.seed == 100
    # a corrupt sidecar behind a "./" entry is named as pathlib names it
    sidecar = manifest.parent / names[0]
    good = sidecar.read_text()
    for given in [load_manifest("./d/odd.json")[0]["path"], f"./d/{names[0]}",
                  f"d//{names[0]}", Path("d", names[0])]:
        sidecar.write_text(good[:-5])
        with pytest.raises(FormatError) as err:
            load_sample(given)
        assert str(err.value).startswith(f"{Path(given)}: not valid JSON: "), given
        for x in ["./" + names[0].replace(".json", ".X.esit"), "", ".", 5, None, ["x"]]:
            sidecar.write_text(json.dumps(dict(json.loads(good), X=x)))
            if isinstance(x, str) and x not in ("", "."):   # the X file, as pathlib spells it
                assert load_sample(given).X.shape == (16, 32)
                continue
            with pytest.raises((FormatError, IsADirectoryError)) as err:
                load_sample(given)
            if x in ("", "."):   # the sample's own directory
                assert str(err.value).endswith(f": '{Path(given).parent}'"), given
            else:
                want = _pathlib_error(given, x)
                assert str(err.value) == f"{Path(given)}: malformed: {want!r}", given
    sidecar.write_text(good)


def test_generate_dataset_counts_and_manifest(tmp_path, space, lf):
    manifest = generate_dataset(space, lf, [cfg(space)], 12, tmp_path / "d",
                                seed_base=100)
    entries = load_manifest(manifest)
    assert len(entries) == 12
    assert sum(e["split"] == "train" for e in entries) == 10
    assert sum(e["split"] == "val" for e in entries) == 1
    assert sum(e["split"] == "test" for e in entries) == 1
    # every referenced file exists and loads
    for e in entries:
        load_sample(e["path"])


def test_generate_dataset_grid_cells(tmp_path, space, lf):
    grid = [cfg(space), cfg(space, extent=2)]
    manifest = generate_dataset(space, lf, grid, 3, tmp_path / "d2", seed_base=0)
    entries = json.loads(manifest.read_text())
    assert len(entries) == 6
    extents = sorted(e["config"]["extent"] for e in entries)
    assert extents == [1, 1, 1, 2, 2, 2]


def test_generate_dataset_byte_identical_rerun(tmp_path, space, lf):
    m1 = generate_dataset(space, lf, [cfg(space)], 4, tmp_path / "a", seed_base=5)
    m2 = generate_dataset(space, lf, [cfg(space)], 4, tmp_path / "b", seed_base=5)
    files1 = sorted(p.name for p in m1.parent.iterdir())
    files2 = sorted(p.name for p in m2.parent.iterdir())
    assert files1 == files2
    for name in files1:
        assert (m1.parent / name).read_bytes() == (m2.parent / name).read_bytes()


def test_generate_dataset_sample_matches_direct_simulation(tmp_path, space, lf):
    manifest = generate_dataset(space, lf, [cfg(space)], 4, tmp_path / "d",
                                seed_base=9)
    # index 2 of 4 is written after two other samples and seeded 9 + 2
    (tmp_path / "direct").mkdir()
    stem = "sample_000_000002"
    save_sample(simulate_sample(space, lf, cfg(space, seed=11)),
                tmp_path / "direct" / stem)
    for suffix in (".X.esit", ".S.esit", ".json"):
        written = (manifest.parent / (stem + suffix)).read_bytes()
        assert written == (tmp_path / "direct" / (stem + suffix)).read_bytes()


@pytest.fixture(scope="module")
def split_entries(tmp_path_factory, space, lf):
    root = tmp_path_factory.mktemp("split")
    # 24 samples: indices 10 and 22 are val, 11 and 23 are test
    return load_manifest(generate_dataset(space, lf, [cfg(space)], 24, root,
                                          seed_base=40))


def test_iter_split_manifest_order_and_split(split_entries, space):
    for split in ("train", "val", "test"):
        wanted = [e for e in split_entries if e["split"] == split]
        got = list(iter_split(split_entries, split, space.n_regions))
        assert [s.config.seed for s in got] == [e["config"]["seed"] for e in wanted]
        for sample, e in zip(got, wanted):
            np.testing.assert_array_equal(sample.X, load_sample(e["path"]).X)
    assert [s.config.seed for s in iter_split(split_entries, "test",
                                               space.n_regions)] == [51, 63]


def test_iter_split_missing_split_raises(split_entries, space):
    with pytest.raises(DataError):
        list(iter_split(split_entries, "holdout", space.n_regions))
    with pytest.raises(DataError):
        list(iter_split([], "test", space.n_regions))


def test_iter_split_streams(split_entries, space, tmp_path):
    entries = [dict(e) for e in split_entries]
    second_test = [e for e in entries if e["split"] == "test"][1]
    second_test["path"] = str(tmp_path / "missing.json")
    samples = iter_split(entries, "test", space.n_regions)
    assert next(samples).config.seed == 51      # loaded before the bad entry
    with pytest.raises(FileNotFoundError):
        next(samples)
