import io
import re

import numpy as np
import pytest
from scipy import ndimage

from foucast import synth, tensorfile
from foucast.resample import bilinear_resize, gaussian_blur, lerp_matrix
from foucast.synth import (
    N_COV_CHANNELS,
    SynthError,
    SyntheticEventConfig,
    generate_event,
    load_event,
    read_manifest,
    synth_dataset,
)
from oracles import map_coordinates_resize, per_lead_level_fields


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


@pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.complex64, np.float16])
def test_other_dtypes_are_not_written(dtype):
    """Only float32, float64 and complex128 arrays are stored; nothing is cast on the way."""
    buf = io.BytesIO()
    with pytest.raises(tensorfile.TensorFileError, match=f"unsupported dtype {np.dtype(dtype)}"):
        tensorfile.write_stream(buf, np.ones(3, dtype=dtype))
    assert buf.getvalue() == b""


def test_truncated_payload_reports_counts(tmp_path):
    p = tmp_path / "t.fct"
    tensorfile.write_tensor(p, np.ones((4, 4)))
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 40])
    with pytest.raises(tensorfile.TruncatedError, match="expected 128 bytes, got 88"):
        tensorfile.read_tensor(p)


def test_dims_whose_product_overflows_u4_are_truncated(tmp_path):
    """Four dims of 2**16 claim 2**64 elements: the count must not wrap to 0."""
    p = tmp_path / "big.fct"
    p.write_bytes(b"FCT1" + bytes([0, 4]) + np.full(4, 1 << 16, dtype="<u4").tobytes())
    with pytest.raises(tensorfile.TruncatedError, match=f"expected {4 << 64} bytes, got 0"):
        tensorfile.read_tensor(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "b.fct"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(tensorfile.BadMagicError, match="at byte 0"):
        tensorfile.read_tensor(p)


def test_dtype_mismatch():
    """An unknown dtype code in a stream is reported at its byte offset."""
    buf = io.BytesIO()
    tensorfile.write_stream(buf, np.ones(3, dtype=np.float32))
    raw = bytearray(buf.getvalue())
    raw[4] = 9
    with pytest.raises(tensorfile.DtypeMismatchError, match="at byte 4"):
        tensorfile.read_stream(io.BytesIO(bytes(raw)))


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


@pytest.mark.parametrize("in_shape,out_hw", [
    ((9, 13), (17, 33)),          # upsampling
    ((16, 16), (5, 7)),           # downsampling
    ((8, 8), (8, 8)),             # same size
    ((6, 10), (1, 1)),            # 1-pixel output: the centre
    ((1, 1), (4, 6)),             # 1-pixel input
    ((3, 2, 12, 9), (4, 15)),     # leading dims
])
def test_bilinear_matches_map_coordinates(in_shape, out_hw):
    field = np.random.default_rng(7).standard_normal(in_shape)
    out = bilinear_resize(field, out_hw)
    assert out.shape == in_shape[:-2] + out_hw
    assert np.max(np.abs(out - map_coordinates_resize(field, out_hw))) < 1e-12


def test_lerp_rows_are_convex_with_at_most_two_weights():
    src = np.array([0.0, 1.0, 2.5, 6.0, 7.0])
    m = lerp_matrix(src, np.linspace(-3.0, 10.0, 41))
    assert m.shape == (41, 5)
    assert np.allclose(m.sum(axis=1), 1.0, atol=1e-15) and np.all(m >= 0.0)
    assert np.all(np.count_nonzero(m, axis=1) <= 2)


def test_lerp_midpoint_is_average():
    fields = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
    out = np.tensordot(lerp_matrix([0.0, 10.0], [5.0]), fields, axes=1)
    assert np.allclose(out[0], 0.5)


def test_lerp_clamps_at_ends():
    fields = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
    out = np.tensordot(lerp_matrix([0.0, 10.0], [-5.0, 25.0]), fields, axes=1)
    assert np.allclose(out[0], 0.0) and np.allclose(out[1], 1.0)


def test_lerp_single_source_point_repeats_it():
    assert np.array_equal(lerp_matrix([30.0], [-1.0, 30.0, 99.0]), np.ones((3, 1)))


@pytest.mark.parametrize("src,match", [
    ([], "empty"),
    ([0.0, 10.0, 10.0], "strictly increasing"),
    ([20.0, 10.0], "strictly increasing"),
])
def test_lerp_rejects_bad_source(src, match):
    with pytest.raises(ValueError, match=match):
        lerp_matrix(src, [5.0])


@pytest.mark.parametrize("hw", [(8, 8), (11, 11), (16, 16), (32, 32), (11, 16)],
                         ids=["8", "11", "16", "32", "11x16"])
def test_gaussian_blur_matches_scipy_bit_for_bit(hw):
    """Ten sigmas from 0.6 to 3.0 as channels, leads from 1e-3 to 1e3 in magnitude.

    Bit-equality rests on scipy's taps and summation order, with no fused
    multiply-add; a scipy build that sums otherwise fails here first.  Lead 0 is
    -0.0 but for one impulse: past a channel's radius it must stay -0.0.
    """
    rng = np.random.default_rng(sum(hw))
    sigmas = tuple(np.linspace(0.6, 3.0, 10).tolist())
    stack = rng.standard_normal((8, 10) + hw) * np.logspace(-3, 3, 8)[:, None, None, None]
    stack[0] = -0.0
    stack[0, :, hw[0] // 2, hw[1] // 2] = 1.0
    out = gaussian_blur(stack, sigmas)
    for c, s in enumerate(sigmas):
        ref = ndimage.gaussian_filter(stack[:, c], (0, s, s))
        assert out[:, c].tobytes() == ref.tobytes(), s


# --- event generation -------------------------------------------------------


def small_cfg(**kw):
    base = dict(seed=5, hw=32, t_in=3, k_out=6, n_blobs=2, cov_hw=16)
    base.update(kw)
    return SyntheticEventConfig(**base)


@pytest.mark.parametrize("kw", [
    {},
    {"k_out": 1},                 # one lead
    {"k_out": 7},                 # four leads, odd k_out
    {"cov_hw": 11},
    {"cov_hw": 8},                # radius 11 at sigma 2.8 > 8 px: reflects more than once
    {"n_blobs": 0},
    {"noise_amp": 0.0},
    {"seed": 3, "hw": 48, "t_in": 2, "k_out": 5, "cov_hw": 9},
], ids=["default", "one_lead", "four_leads", "cov_hw_11", "cov_hw_8", "no_blobs", "no_noise",
        "mixed"])
def test_covariate_blur_over_leads_matches_per_lead_oracle(monkeypatch, kw):
    """One blur per channel over all leads gives every bit of one blur per lead and channel."""
    cfg = small_cfg(**kw)
    _, cov = generate_event(cfg)
    monkeypatch.setattr(synth, "_level_fields", per_lead_level_fields)
    _, ref = generate_event(cfg)
    assert cov.fields.shape == ref.fields.shape
    assert np.array_equal(cov.fields, ref.fields)


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
    assert cov.lead_minutes[0] == 10.0  # first future frame, one cadence after issue


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
    RadarSequence(frames=good)
    with pytest.raises(SynthError, match=r"\[0, 1\]"):
        RadarSequence(frames=good - 0.5)
    with pytest.raises(SynthError, match=r"must be \(n, 1, H, W\)"):
        RadarSequence(frames=np.zeros((3, 2, 8, 8)))


def test_non_finite_event_values_rejected():
    """NaN passes the [0, 1] range check, so non-finite values are rejected by name."""
    from foucast.synth import CovariateGrid, RadarSequence

    frames = np.zeros((3, 1, 8, 8))
    frames[1, 0, 2, 3] = np.nan
    with pytest.raises(SynthError, match="frames contains non-finite"):
        RadarSequence(frames=frames)
    fields = np.zeros((2, N_COV_CHANNELS, 8, 8))
    fields[0, 4, 1, 1] = -np.inf
    with pytest.raises(SynthError, match="fields contains non-finite"):
        CovariateGrid(fields=fields, lead_minutes=np.array([10.0, 30.0]))
    with pytest.raises(SynthError, match="lead_minutes contains non-finite"):
        CovariateGrid(fields=np.zeros((2, N_COV_CHANNELS, 8, 8)),
                      lead_minutes=np.array([10.0, np.nan]))


@pytest.mark.parametrize("leads,match", [
    ([10.0], r"lead_minutes must have shape \(2,\), got \(1,\)"),
    ([10.0, 20.0, 30.0], r"lead_minutes must have shape \(2,\)"),
    ([[10.0, 20.0]], r"lead_minutes must have shape \(2,\)"),
    ([30.0, 10.0], "lead_minutes must be strictly increasing"),
    ([10.0, 10.0], "lead_minutes must be strictly increasing"),
])
def test_covariate_leads_match_fields_and_increase(leads, match):
    """regrid interpolates over the leads, so one per field, in order, is checked at load."""
    from foucast.synth import CovariateGrid

    with pytest.raises(SynthError, match=match):
        CovariateGrid(fields=np.zeros((2, N_COV_CHANNELS, 8, 8)), lead_minutes=np.array(leads))


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
    # per-channel cosine over all bins between each covariate and the future frame
    num = np.sum(f_cov * np.conj(f_fut), axis=(0, 1)).real
    den = np.linalg.norm(f_cov, axis=(0, 1)) * np.linalg.norm(f_fut, axis=(0, 1)) + 1e-8
    return float(np.mean(np.abs(num / den)))


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


def dataset_files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_dataset_bytes_do_not_depend_on_pool_size(tmp_path, monkeypatch):
    """Every event file and the manifest are byte-identical with one, two and three workers."""
    written = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("FOUCAST_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        synth_dataset(small_cfg(seed=21), n_events=5, out_dir=out, train_frac=0.6)
        written[threads] = dataset_files(out)
    assert len(written["1"]) == 3 * 5 + 1
    assert written["1"] == written["2"] == written["3"]


@pytest.mark.parametrize("n_events,train_frac,message", [
    (-1, 0.8, "n_events must be nonnegative, got -1"),
    (3, 1.5, "train_frac must lie in [0, 1], got 1.5"),
    (3, -0.1, "train_frac must lie in [0, 1], got -0.1"),
    (3, float("nan"), "train_frac must lie in [0, 1], got nan"),
])
def test_synth_dataset_rejects_bad_arguments(tmp_path, n_events, train_frac, message):
    """A bad count or split fraction fails, naming the argument, before any file exists."""
    out = tmp_path / "data"
    with pytest.raises(SynthError, match=re.escape(message)):
        synth_dataset(small_cfg(), n_events=n_events, out_dir=out, train_frac=train_frac)
    assert not out.exists()


def test_synth_dataset_reads_pool_size_before_writing(tmp_path, monkeypatch):
    """A bad FOUCAST_THREADS fails before the output directory is made."""
    from foucast.pool import ConfigError

    monkeypatch.setenv("FOUCAST_THREADS", "0")
    out = tmp_path / "data"
    with pytest.raises(ConfigError, match="FOUCAST_THREADS"):
        synth_dataset(small_cfg(), n_events=2, out_dir=out)
    assert not out.exists()


def test_empty_dataset(tmp_path):
    manifest_path = synth_dataset(small_cfg(), n_events=0, out_dir=tmp_path)
    man = read_manifest(manifest_path)
    assert man.entries == []


def test_manifest_missing_file_rejected(tmp_path):
    manifest_path = synth_dataset(small_cfg(), n_events=1, out_dir=tmp_path)
    (tmp_path / "events/event_0000_covs.fct").unlink()
    with pytest.raises(SynthError, match="missing file"):
        read_manifest(manifest_path)


def test_manifest_short_event_file_rejected(tmp_path):
    """An event file holding less payload than its dims claim stops the manifest read."""
    manifest_path = synth_dataset(small_cfg(), n_events=1, out_dir=tmp_path)
    path = tmp_path / "events/event_0000_covs.fct"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(tensorfile.TruncatedError) as err:
        read_manifest(manifest_path)
    # it keeps its type and offset, and names the manifest line and the file
    assert str(err.value).startswith(f"{manifest_path} line ")
    assert f": {path}: truncated payload: expected" in str(err.value)
    assert err.value.byte_offset == path.stat().st_size


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("version = 1\n", ""),
    lambda text: text.replace("version = 1\n", "version = 7\n"),
], ids=["missing", "unknown"])
def test_manifest_version_checked(tmp_path, edit):
    manifest_path = synth_dataset(small_cfg(), n_events=1, out_dir=tmp_path)
    manifest_path.write_text(edit(manifest_path.read_text()))
    with pytest.raises(SynthError, match=r"manifest version (None|7) is not 1"):
        read_manifest(manifest_path)


@pytest.mark.parametrize("key", ["t_in", "k_out", "hw", "cadence_minutes"])
def test_manifest_without_a_grid_key_rejected(tmp_path, key):
    """A header missing a grid key fails at read, naming it, not later at load_event."""
    manifest_path = synth_dataset(small_cfg(), n_events=2, out_dir=tmp_path)
    lines = manifest_path.read_text().splitlines(keepends=True)
    manifest_path.write_text("".join(ln for ln in lines if not ln.startswith(f"{key} =")))
    with pytest.raises(SynthError, match=re.escape(f"manifest {key} = None is not a number")):
        read_manifest(manifest_path)


def test_load_event_checks_frames_against_manifest(tmp_path):
    """Frames that do not fit the header's (t_in + k_out, 1, hw, hw) fail at load, by file."""
    manifest_path = synth_dataset(small_cfg(), n_events=1, out_dir=tmp_path)
    man = read_manifest(manifest_path)
    path = man.entries[0].frames_path
    frames = tensorfile.read_tensor(path)
    for bad in (frames[:-1], frames[:, :, :16]):
        tensorfile.write_tensor(path, bad)
        with pytest.raises(SynthError, match=re.escape(f"{path}: frames {bad.shape} do not match")):
            load_event(man.entries[0], man)
