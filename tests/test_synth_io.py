import io

import numpy as np
import pytest

from foucast import tensorfile
from foucast.model import PER_CHANNEL
from foucast.resample import bilinear_resize, temporal_interp
from foucast.synth import (
    N_COV_CHANNELS,
    SynthError,
    SyntheticEventConfig,
    generate_event,
    load_event,
    read_manifest,
    synth_dataset,
)
from oracles import alignment_scores


# --- tensor files -----------------------------------------------------------


def round_trip(arr):
    buf = io.BytesIO()
    tensorfile.write_stream(buf, arr)
    buf.seek(0)
    return tensorfile.read_stream(buf)


def test_scalar_round_trip():
    back = round_trip(np.float64(3.25))
    assert back.shape == ()
    assert back == 3.25


def test_f64_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4, 5))
    p = tmp_path / "a.fct"
    tensorfile.write_tensor(p, a)
    b = tensorfile.read_tensor(p)
    assert b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


def test_f32_and_c128_round_trips():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((4, 2)).astype(np.float32)
    assert round_trip(f).tobytes() == f.tobytes()
    z = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    back = round_trip(z)
    assert back.dtype == np.complex128
    assert back.tobytes() == z.tobytes()


def test_truncated_payload_reports_counts(tmp_path):
    p = tmp_path / "t.fct"
    tensorfile.write_tensor(p, np.ones((4, 4)))
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 40])
    with pytest.raises(tensorfile.TruncatedError, match="expected 128 bytes, got 88"):
        tensorfile.read_tensor(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "b.fct"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(tensorfile.BadMagicError, match="at byte 0"):
        tensorfile.read_tensor(p)


def test_dtype_mismatch():
    buf = io.BytesIO()
    tensorfile.write_stream(buf, np.ones(3, dtype=np.float32))
    buf.seek(0)
    with pytest.raises(tensorfile.DtypeMismatchError, match="at byte 4"):
        tensorfile.read_stream(buf, expect_code=1)


def test_unknown_dtype_code(tmp_path):
    p = tmp_path / "u.fct"
    p.write_bytes(b"FCT1" + bytes([9, 0]))
    with pytest.raises(tensorfile.DtypeMismatchError):
        tensorfile.read_tensor(p)


def test_validate_header(tmp_path):
    p = tmp_path / "h.fct"
    tensorfile.write_tensor(p, np.zeros((2, 5), dtype=np.float32))
    code, dims = tensorfile.validate_header(p)
    assert code == 0 and dims == (2, 5)


# --- resampling -------------------------------------------------------------


def test_bilinear_identity_same_size():
    rng = np.random.default_rng(2)
    f = rng.standard_normal((8, 8))
    assert np.allclose(bilinear_resize(f, (8, 8)), f, atol=1e-12)


def test_bilinear_reproduces_affine_ramp():
    ys, xs = np.mgrid[0:9, 0:9].astype(float)
    ramp = 2.0 * xs + 0.5 * ys + 1.0
    out = bilinear_resize(ramp, (17, 33))
    oy, ox = np.mgrid[0:17, 0:33].astype(float)
    want = 2.0 * (ox * 8 / 32) + 0.5 * (oy * 8 / 16) + 1.0
    assert np.max(np.abs(out - want)) < 1e-10


def test_temporal_midpoint_is_average():
    fields = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
    out = temporal_interp(fields, np.array([0.0, 10.0]), np.array([5.0]))
    assert np.allclose(out[0], 0.5)


def test_temporal_clamps_at_ends():
    fields = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
    out = temporal_interp(fields, np.array([0.0, 10.0]), np.array([-5.0, 25.0]))
    assert np.allclose(out[0], 0.0) and np.allclose(out[1], 1.0)


# --- event generation -------------------------------------------------------


def small_cfg(**kw):
    base = dict(seed=5, hw=32, t_in=3, k_out=6, n_blobs=2, cov_hw=16)
    base.update(kw)
    return SyntheticEventConfig(**base)


def test_no_blobs_no_noise_gives_zero_frames():
    seq, _ = generate_event(small_cfg(n_blobs=0, noise_amp=0.0))
    assert np.all(seq.frames == 0.0)


def test_deterministic_in_seed():
    a1, c1 = generate_event(small_cfg())
    a2, c2 = generate_event(small_cfg())
    assert a1.frames.tobytes() == a2.frames.tobytes()
    assert c1.fields.tobytes() == c2.fields.tobytes()
    a3, _ = generate_event(small_cfg(seed=6))
    assert a1.frames.tobytes() != a3.frames.tobytes()


def test_frames_in_unit_range_and_shapes():
    seq, cov = generate_event(small_cfg())
    assert seq.frames.shape == (9, 1, 32, 32)
    assert np.all(seq.frames >= 0) and np.all(seq.frames <= 1)
    assert cov.fields.shape[1] == N_COV_CHANNELS
    assert cov.fields.shape[2:] == (16, 16)
    assert len(cov.lead_minutes) == cov.fields.shape[0]
    assert seq.minutes[2] == 0.0  # last input frame is the issue time


def test_invalid_ranges_rejected():
    with pytest.raises(SynthError):
        generate_event(small_cfg(advect_range=(3.0, 1.0)))
    with pytest.raises(SynthError):
        generate_event(small_cfg(noise_amp=-0.1))
    with pytest.raises(SynthError):
        generate_event(small_cfg(anisotropy_range=(0.5, 2.0)))
    with pytest.raises(SynthError):
        generate_event(small_cfg(size_range=(0.0, 0.1)))


def test_radar_sequence_invariants_enforced():
    from foucast.synth import RadarSequence

    good = np.zeros((3, 1, 8, 8))
    RadarSequence(frames=good, minutes=np.array([-10.0, 0.0, 10.0]))
    with pytest.raises(SynthError, match=r"\[0, 1\]"):
        RadarSequence(frames=good - 0.5, minutes=np.array([-10.0, 0.0, 10.0]))
    with pytest.raises(SynthError, match="increasing"):
        RadarSequence(frames=good, minutes=np.array([0.0, 0.0, 10.0]))
    with pytest.raises(SynthError, match="cadence"):
        RadarSequence(frames=good, minutes=np.array([0.0, 10.0, 30.0]))


def test_non_finite_event_values_rejected():
    """NaN passes the [0, 1] range check, so non-finite values are rejected by name."""
    from foucast.synth import CovariateGrid, RadarSequence

    minutes = np.array([-10.0, 0.0, 10.0])
    frames = np.zeros((3, 1, 8, 8))
    frames[1, 0, 2, 3] = np.nan
    with pytest.raises(SynthError, match="frames contains non-finite"):
        RadarSequence(frames=frames, minutes=minutes)
    with pytest.raises(SynthError, match="minutes contains non-finite"):
        RadarSequence(frames=np.zeros((3, 1, 8, 8)), minutes=np.array([-10.0, 0.0, np.inf]))
    fields = np.zeros((2, N_COV_CHANNELS, 8, 8))
    fields[0, 4, 1, 1] = -np.inf
    with pytest.raises(SynthError, match="fields contains non-finite"):
        CovariateGrid(fields=fields, lead_minutes=np.array([10.0, 30.0]))
    with pytest.raises(SynthError, match="lead_minutes contains non-finite"):
        CovariateGrid(fields=np.zeros((2, N_COV_CHANNELS, 8, 8)),
                      lead_minutes=np.array([10.0, np.nan]))


def phase_alignment_stat(seq, cov, rng=None):
    """Mean per-channel |alignment| between covariates and the future mean frame."""
    future = seq.frames[3:, 0].mean(axis=0)
    f_fut = np.fft.rfft2(bilinear_resize(future, (16, 16))[..., None], axes=(0, 1))
    fields = cov.fields.mean(axis=0)  # average over leads
    fields = (fields - fields.mean(axis=(1, 2), keepdims=True))
    f_cov = np.fft.rfft2(fields.transpose(1, 2, 0), axes=(0, 1))
    if rng is not None:  # phase-randomized control, amplitudes kept
        phases = rng.uniform(-np.pi, np.pi, f_cov.shape)
        f_cov = np.abs(f_cov) * np.exp(1j * phases)
    f_fut_tiled = np.broadcast_to(f_fut, f_cov.shape)
    scores = alignment_scores(f_cov, f_fut_tiled, mode=PER_CHANNEL)[0, 0]
    return float(np.mean(np.abs(scores)))


def test_covariates_phase_correlated_with_future():
    """True covariates beat phase-randomized ones, averaged over 100 events."""
    rng = np.random.default_rng(99)
    true_scores, rand_scores = [], []
    for seed in range(100):
        seq, cov = generate_event(small_cfg(seed=100 + seed))
        true_scores.append(phase_alignment_stat(seq, cov))
        rand_scores.append(phase_alignment_stat(seq, cov, rng=rng))
    assert np.mean(true_scores) > np.mean(rand_scores)


# --- dataset + manifest -----------------------------------------------------


def test_synth_dataset_round_trip(tmp_path):
    manifest_path = synth_dataset(small_cfg(seed=11), n_events=4, out_dir=tmp_path)
    man = read_manifest(manifest_path)
    assert len(man.entries) == 4
    assert [e.split for e in man.entries] == ["train", "train", "train", "test"]
    assert man.meta["t_in"] == "3"
    assert man.cov_std is not None and np.all(man.cov_std > 0)

    seq, cov = load_event(man.entries[0], man)
    assert seq.frames.shape == (9, 1, 32, 32)
    assert cov.mean is not None and cov.mean.shape == (N_COV_CHANNELS,)

    # regeneration is stable: file contents identical across runs
    d2 = tmp_path / "again"
    synth_dataset(small_cfg(seed=11), n_events=4, out_dir=d2)
    a = (tmp_path / "events/event_0000_frames.fct").read_bytes()
    b = (d2 / "events/event_0000_frames.fct").read_bytes()
    assert a == b


def test_empty_dataset(tmp_path):
    manifest_path = synth_dataset(small_cfg(), n_events=0, out_dir=tmp_path)
    man = read_manifest(manifest_path)
    assert man.entries == []


def test_manifest_missing_file_rejected(tmp_path):
    manifest_path = synth_dataset(small_cfg(), n_events=1, out_dir=tmp_path)
    (tmp_path / "events/event_0000_covs.fct").unlink()
    with pytest.raises(SynthError, match="missing file"):
        read_manifest(manifest_path)
