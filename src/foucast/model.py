"""End-to-end nowcasting network.

Layout conventions: convolutional stages run channel-first (C, H, W); the
spectral stack runs spatial-first (H, W, C) so channels sit on the softmax
axis.  The encoder halves the input twice (fixed x4 downsampling to the
hidden resolution); the decoder mirrors it with transposed convolutions and a
final logistic.  Fusion order: covariate-guided modulation once, memory phase
alignment once, then L blocks of {frequency attention (+ gated reinjection) +
block-diagonal spectral MLP}; a config flag moves the fusion steps inside
every block instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .params import ParamSet
from .resample import bilinear_resize, temporal_interp
from .synth import CADENCE_MINUTES, N_COV_CHANNELS, CovariateGrid, RadarSequence

DOWNSAMPLE = 4  # two stride-2 stages in every encoder

PER_BIN = "per_bin"          # modulation scores each (h, w, c) coefficient
PER_CHANNEL = "per_channel"  # modulation scores each channel over all bins

EPS_ALIGN = 1e-8   # alignment-score denominators
EPS_FUSE = 1e-6    # phasor-fusion degeneracy fallback
EPS_UNIT = 1e-12   # unit-normalization guard


class ModelError(ValueError):
    pass


@dataclass
class ModelConfig:
    t_in: int = 5
    k_out: int = 20
    hw: int = 128
    hidden_hw: int = 32
    c_emb: int = 32
    depth_l: int = 6
    n_blocks: int = 4
    memory_slots: int = 64
    lam: float = 0.57
    enable_pfm: bool = True
    enable_fm: bool = True
    enable_ifa: bool = True
    fusion_per_block: bool = False
    pfm_mode: str = PER_BIN
    enc_channels: tuple[int, int, int] = (16, 32, 32)
    mem_channels: int = 16
    afno_bias: bool = True  # complex biases in the spectral MLPs

    def validate(self) -> None:
        if self.hw != DOWNSAMPLE * self.hidden_hw:
            raise ModelError(
                f"hw={self.hw} must be {DOWNSAMPLE}x hidden_hw={self.hidden_hw}"
            )
        if self.c_emb % self.n_blocks:
            raise ModelError(f"c_emb={self.c_emb} not divisible by n_blocks={self.n_blocks}")
        if not 0.0 <= self.lam <= 1.0:
            raise ModelError(f"lambda must lie in [0, 1], got {self.lam}")
        if self.pfm_mode not in (PER_BIN, PER_CHANNEL):
            raise ModelError(f"unknown pfm_mode {self.pfm_mode!r}")
        for name in ("t_in", "k_out", "hidden_hw", "c_emb", "depth_l", "memory_slots"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1")

    @property
    def wf(self) -> int:
        return ad.half_width(self.hidden_hw)


MEM_SUMMARY_CHANNELS = 3  # temporal mean, last frame, last minus first


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ParamSet:
    cfg.validate()
    ps = ParamSet()

    def conv(name, cout, cin, k):
        ps.add(f"{name}.w", rng.standard_normal((cout, cin, k, k)) * np.sqrt(2.0 / (cin * k * k)))
        ps.add(f"{name}.b", np.zeros(cout))

    def convT(name, cin, cout, k):
        ps.add(f"{name}.w", rng.standard_normal((cin, cout, k, k)) * np.sqrt(2.0 / (cin * k * k)))
        ps.add(f"{name}.b", np.zeros(cout))

    c1, c2, c3 = cfg.enc_channels
    conv("enc1", c1, cfg.t_in, 3)
    conv("enc2", c2, c1, 3)
    conv("enc3", c3, c2, 3)
    conv("enc4", cfg.c_emb, c3, 3)

    conv("cov_proj", cfg.c_emb, cfg.k_out * N_COV_CHANNELS, 1)

    conv("dec1", c3, cfg.c_emb, 3)
    convT("dec2", c3, c2, 4)
    convT("dec3", c2, c1, 4)
    conv("dec4", cfg.k_out, c1, 3)

    ps.add("mod.beta_logit", np.zeros(()))

    cm = cfg.mem_channels
    conv("mem1", cm, MEM_SUMMARY_CHANNELS, 3)
    conv("mem2", cm, cm, 3)
    conv("mem3", cm, cm, 3)
    conv("mem4", cfg.c_emb, cm, 3)
    phases = rng.uniform(-np.pi, np.pi, size=(cfg.memory_slots, cfg.c_emb))
    ps.add("memory.slots", np.exp(1j * phases))

    def afno_params(name, c_in, c_out):
        nb = cfg.n_blocks
        ib, ob = c_in // nb, c_out // nb
        scale1 = 1.0 / np.sqrt(2.0 * ib)
        scale2 = 1.0 / np.sqrt(2.0 * ib)
        ps.add(f"{name}.w1", scale1 * (rng.standard_normal((nb, ib, ib)) + 1j * rng.standard_normal((nb, ib, ib))))
        ps.add(f"{name}.w2", scale2 * (rng.standard_normal((nb, ob, ib)) + 1j * rng.standard_normal((nb, ob, ib))))
        ps.add(f"{name}.b1", np.zeros((nb, ib), dtype=np.complex128))
        ps.add(f"{name}.b2", np.zeros((nb, ob), dtype=np.complex128))

    afno_params("align", cfg.c_emb, cfg.c_emb)
    for layer in range(cfg.depth_l):
        hh, wf, c = cfg.hidden_hw, cfg.wf, cfg.c_emb
        noise = 0.02 * (rng.standard_normal((hh, wf, c)) + 1j * rng.standard_normal((hh, wf, c)))
        ps.add(f"blk{layer}.attn", np.ones((hh, wf, c), dtype=np.complex128) + noise)
        ps.add(f"blk{layer}.gate", np.full(c, 0.1))
        afno_params(f"blk{layer}.afno", cfg.c_emb, cfg.c_emb)
    return ps


def make_leaves(params: ParamSet) -> dict[str, Var]:
    return {name: Var(value, op=f"param:{name}") for name, value in params}


def collect_grads(params: ParamSet, leaves: dict[str, Var]) -> ParamSet:
    grads = ParamSet()
    for name, value in params:
        g = leaves[name].grad
        grads.add(name, np.zeros_like(value) if g is None else g)
    return grads


# ---------------------------------------------------------------------------
# covariate regridding


def regrid(
    cov: CovariateGrid,
    target_minutes: np.ndarray,
    target_hw: tuple[int, int],
    normalize: bool = True,
) -> np.ndarray:
    """Align covariates to the radar cadence and the hidden grid.

    Bilinear in space, linear in time (clamped at the ends), then channelwise
    z-scoring with the grid's attached statistics.  Returns (K, M, H, W).
    """
    if cov.fields.shape[0] == 0:
        raise ModelError("empty covariate set")
    spatial = bilinear_resize(cov.fields, target_hw)
    aligned = temporal_interp(spatial, cov.lead_minutes, np.asarray(target_minutes))
    if not normalize:
        return aligned
    if cov.mean is None or cov.std is None:
        mean = aligned.mean(axis=(0, 2, 3))
        std = np.maximum(aligned.std(axis=(0, 2, 3)), 1e-6)
    else:
        mean, std = cov.mean, cov.std
    return (aligned - mean[None, :, None, None]) / std[None, :, None, None]


# ---------------------------------------------------------------------------
# tape-side building blocks


def _conv_relu(x: Var, leaves, name: str, stride: int = 1, pad: int = 1, act: bool = True) -> Var:
    y = ad.conv2d(x, leaves[f"{name}.w"], leaves[f"{name}.b"], stride=stride, pad=pad)
    return ad.relu(y) if act else y


def encode_tape(frames: np.ndarray, leaves, cfg: ModelConfig) -> Var:
    """Radar encoder: (T, 1, hw, hw) frames to a (c_emb, hidden, hidden) map."""
    if frames.shape != (cfg.t_in, 1, cfg.hw, cfg.hw):
        raise ModelError(f"input frames {frames.shape} != {(cfg.t_in, 1, cfg.hw, cfg.hw)}")
    x = Var(frames.reshape(cfg.t_in, cfg.hw, cfg.hw), op="input")
    h = _conv_relu(x, leaves, "enc1")
    h = _conv_relu(h, leaves, "enc2", stride=2)
    h = _conv_relu(h, leaves, "enc3", stride=2)
    return _conv_relu(h, leaves, "enc4", act=False)


def decode_tape(h: Var, leaves, cfg: ModelConfig) -> Var:
    """Mirror decoder to (k_out, 1, hw, hw) with a final logistic."""
    y = _conv_relu(h, leaves, "dec1")
    y = ad.relu(ad.conv2d_transpose(y, leaves["dec2.w"], leaves["dec2.b"], stride=2, pad=1))
    y = ad.relu(ad.conv2d_transpose(y, leaves["dec3.w"], leaves["dec3.b"], stride=2, pad=1))
    y = _conv_relu(y, leaves, "dec4", act=False)
    return ad.reshape(ad.sigmoid(y), (cfg.k_out, 1, cfg.hw, cfg.hw))


def embed_covariates_tape(cov_aligned: np.ndarray, leaves, cfg: ModelConfig) -> Var:
    """1x1-conv projection of the stacked (K, M, h, h) covariates to c_emb."""
    k, m, hh, ww = cov_aligned.shape
    if (k, m, hh, ww) != (cfg.k_out, N_COV_CHANNELS, cfg.hidden_hw, cfg.hidden_hw):
        raise ModelError(f"aligned covariates {cov_aligned.shape} do not match config")
    x = Var(cov_aligned.reshape(k * m, hh, ww), op="covariates")
    return ad.conv2d(x, leaves["cov_proj.w"], leaves["cov_proj.b"], stride=1, pad=0)


def mem_encode_tape(frames: np.ndarray, leaves, cfg: ModelConfig) -> Var:
    """Memory encoder: any-length sequence to a (hidden, wf, c_emb) spectrum.

    The sequence enters through a fixed length-agnostic temporal summary so
    ground-truth (T+K) and input (T) sequences share one set of weights.
    """
    flat = frames.reshape(frames.shape[0], cfg.hw, cfg.hw)
    summary = np.stack([flat.mean(axis=0), flat[-1], flat[-1] - flat[0]])
    x = Var(summary, op="mem_summary")
    h = _conv_relu(x, leaves, "mem1")
    h = _conv_relu(h, leaves, "mem2", stride=2)
    h = _conv_relu(h, leaves, "mem3", stride=2)
    h = _conv_relu(h, leaves, "mem4", act=False)
    return ad.rfft2(ad.transpose(h, (1, 2, 0)))


def afno_tape(z: Var, leaves, name: str, cfg: ModelConfig) -> Var:
    """Block-diagonal complex MLP per frequency bin: W2 relu(W1 z + b1) + b2.

    Weights are shared across bins, so only channels mix; the activation is
    split ReLU.  The same kernel serves the hidden blocks and the channel
    alignment in front of the memory bank.
    """
    nb = cfg.n_blocks
    hh, wf, c = z.value.shape
    zb = ad.reshape(z, (hh, wf, nb, c // nb, 1))
    h = ad.matmul(leaves[f"{name}.w1"], zb)
    if cfg.afno_bias:
        b1 = ad.reshape(leaves[f"{name}.b1"], (nb, -1, 1))
        h = ad.add(h, b1)
    h = ad.relu(h)
    out = ad.matmul(leaves[f"{name}.w2"], h)
    if cfg.afno_bias:
        b2 = ad.reshape(leaves[f"{name}.b2"], (nb, -1, 1))
        out = ad.add(out, b2)
    c_out = leaves[f"{name}.w2"].value.shape[0] * leaves[f"{name}.w2"].value.shape[1]
    return ad.reshape(out, (hh, wf, c_out))


def modulate_tape(f_hid: Var, f_met: Var, beta: Var, cfg: ModelConfig) -> Var:
    """Covariate-guided modulation with a learnable phase-mixing factor.

    Amplitudes are reweighted by a softmax over channels of the phase-alignment
    scores against the covariate spectrum; phases are fused by interpolating
    unit phasors, falling back to the hidden phasor where the interpolation
    nearly cancels.  Fusion never changes magnitudes: the output modulus is
    exactly the reweighted amplitude.
    """
    if cfg.pfm_mode == PER_BIN:
        num = ad.creal(ad.mul(f_hid, ad.conj(f_met)))
        den = ad.add(ad.mul(ad.cabs(f_hid), ad.cabs(f_met)), EPS_ALIGN)
        scores = ad.div(num, den)
    else:
        num = ad.creal(ad.sum_(ad.mul(f_hid, ad.conj(f_met)), axis=(0, 1)))
        ah = ad.cabs(f_hid)
        am = ad.cabs(f_met)
        nh = ad.sqrt(ad.sum_(ad.mul(ah, ah), axis=(0, 1)))
        nm = ad.sqrt(ad.sum_(ad.mul(am, am), axis=(0, 1)))
        scores = ad.div(num, ad.add(ad.mul(nh, nm), EPS_ALIGN))
    weights = ad.softmax(scores, axis=-1)
    amp = ad.mul(weights, ad.cabs(f_hid))
    p_hid = ad.cunit(f_hid, EPS_UNIT)
    p_met = ad.cunit(f_met, EPS_UNIT)
    z = ad.add(ad.mul(beta, p_hid), ad.mul(ad.sub(1.0, beta), p_met))
    degenerate = np.abs(z.value) < EPS_FUSE
    fused = ad.where(degenerate, p_hid, ad.cunit(z, EPS_FUSE))
    return ad.mul(amp, fused)


def memory_match_tape(query: Var, slots: Var) -> tuple[Var, Var]:
    """Per-bin softmax attention over unit-normalized slots; (alpha, f_match).

    f_match is a convex combination of unit-modulus slot entries, so
    |f_match| <= 1 and doubles as a confidence for the phase rotation.
    """
    q = ad.cunit(query, EPS_UNIT)
    m = ad.cunit(slots, EPS_UNIT)
    scores = ad.creal(ad.matmul(q, ad.transpose(ad.conj(m), (1, 0))))
    alpha = ad.softmax(scores, axis=-1)
    f_match = ad.matmul(alpha, m)
    return alpha, f_match


def phase_align_tape(f_hid: Var, f_match: Var) -> Var:
    """Rotate hidden phases toward the matched phases by (1 - sim)/2 of the arc.

    sim = |f_match| cos(dphi) keeps the matched amplitude unnormalized, so
    low-confidence matches rotate less; entries with |f_match| < EPS_FUSE pass
    through.  Magnitudes are preserved exactly.
    """
    unit_hid = ad.cunit(f_hid, EPS_UNIT)
    sim = ad.creal(ad.mul(unit_hid, ad.conj(f_match)))
    w_phase = ad.mul(ad.sub(1.0, sim), 0.5)
    dphi = ad.carg(ad.mul(f_match, ad.conj(unit_hid)))
    theta = ad.mul(w_phase, dphi)
    rot = ad.make_complex(ad.cos(theta), ad.sin(theta))
    passthrough = np.abs(f_match.value) < EPS_FUSE
    return ad.where(passthrough, f_hid, ad.mul(f_hid, rot))


def attention_tape(z: Var, leaves, layer: int, cfg: ModelConfig) -> Var:
    """Per-frequency attention plus the gated reinjection of what it discards.

    The elementwise product tends to act as a low-pass filter; the per-channel
    gate adds back the residual.  At gate 1 the block is the identity, at
    gate 0 it is the bare attention.
    """
    w = leaves[f"blk{layer}.attn"]
    f_out = ad.mul(w, z)
    if not cfg.enable_ifa:
        return f_out
    gate = ad.reshape(leaves[f"blk{layer}.gate"], (1, 1, cfg.c_emb))
    return ad.add(f_out, ad.mul(gate, ad.sub(z, f_out)))


def hidden_forward_tape(
    h: Var,
    cov_emb: Var | None,
    f_match: Var | None,
    leaves,
    cfg: ModelConfig,
) -> Var:
    """Spectral hidden stack over a (hidden, hidden, c_emb) real field."""
    f_hid = ad.rfft2(h)
    f_met = ad.rfft2(cov_emb) if cov_emb is not None else None
    beta = ad.sigmoid(leaves["mod.beta_logit"]) if f_met is not None else None

    def fuse(z: Var) -> Var:
        if f_met is not None:
            z = modulate_tape(z, f_met, beta, cfg)
        if f_match is not None:
            z = phase_align_tape(z, f_match)
        return z

    if not cfg.fusion_per_block:
        f_hid = fuse(f_hid)
    for layer in range(cfg.depth_l):
        if cfg.fusion_per_block:
            f_hid = fuse(f_hid)
        f_hid = attention_tape(f_hid, leaves, layer, cfg)
        f_hid = afno_tape(f_hid, leaves, f"blk{layer}.afno", cfg)
    return ad.irfft2_real(f_hid, cfg.hidden_hw)


@dataclass
class ForwardTrace:
    query_source: str            # "gt", "input", or "none"
    alpha: np.ndarray | None = None


def forward_tape(
    leaves: dict[str, Var],
    cfg: ModelConfig,
    input_frames: np.ndarray,
    cov_aligned: np.ndarray | None,
    phase: int = 2,
    gt_frames: np.ndarray | None = None,
) -> tuple[Var, ForwardTrace]:
    """Full forward pass on the tape; returns (K, 1, hw, hw) predictions.

    ``phase`` selects the memory query route: 1 queries with the ground-truth
    sequence (requires ``gt_frames`` of length t_in + k_out), 2 queries with
    the input sequence through the channel-alignment block.
    """
    if phase not in (1, 2):
        raise ModelError(f"invalid phase {phase!r}")
    h = encode_tape(input_frames, leaves, cfg)
    h_spatial = ad.transpose(h, (1, 2, 0))

    cov_emb = None
    if cfg.enable_pfm:
        if cov_aligned is None:
            raise ModelError("modulation enabled but no covariates supplied")
        cov_emb = ad.transpose(embed_covariates_tape(cov_aligned, leaves, cfg), (1, 2, 0))

    f_match = None
    trace = ForwardTrace(query_source="none")
    if cfg.enable_fm:
        if phase == 1:
            if gt_frames is None:
                raise ModelError("phase 1 requires the ground-truth sequence")
            if gt_frames.shape[0] != cfg.t_in + cfg.k_out:
                raise ModelError(
                    f"ground-truth query needs {cfg.t_in + cfg.k_out} frames, "
                    f"got {gt_frames.shape[0]}"
                )
            query = mem_encode_tape(gt_frames, leaves, cfg)
            trace.query_source = "gt"
        else:
            query = afno_tape(
                mem_encode_tape(input_frames, leaves, cfg), leaves, "align", cfg
            )
            trace.query_source = "input"
        alpha, f_match = memory_match_tape(query, leaves["memory.slots"])
        trace.alpha = alpha.value

    h_out = hidden_forward_tape(h_spatial, cov_emb, f_match, leaves, cfg)
    pred = decode_tape(ad.transpose(h_out, (2, 0, 1)), leaves, cfg)
    return pred, trace


def loss_tape(pred: Var, gt_frames: np.ndarray, lam: float) -> Var:
    """Combined objective on the tape: MSE plus lam * spectral L1.

    The spectral term is the mean modulus of the per-frame 2D DFT difference
    over every bin of every frame, so the weight's scale does not depend on
    resolution or sequence length.
    """
    gt = gt_frames.reshape(pred.value.shape)
    diff = ad.sub(pred, gt)
    loss = ad.mean(ad.mul(diff, diff))
    if lam > 0.0:
        k = pred.value.shape[0]
        hw1, hw2 = pred.value.shape[2], pred.value.shape[3]
        stack = ad.transpose(ad.reshape(pred, (k, hw1, hw2)), (1, 2, 0))
        pf = ad.fft2(stack)
        gf = np.fft.fft2(gt.reshape(k, hw1, hw2), axes=(1, 2)).transpose(1, 2, 0)
        loss = ad.add(loss, ad.mul(ad.mean(ad.cabs(ad.sub(pf, gf))), lam))
    return loss


# ---------------------------------------------------------------------------
# model container


@dataclass
class NowcastModel:
    cfg: ModelConfig
    params: ParamSet
    frozen_memory: bool = False

    @classmethod
    def initialize(cls, cfg: ModelConfig, seed: int = 0) -> "NowcastModel":
        return cls(cfg=cfg, params=init_params(cfg, np.random.default_rng(seed)))

    def align_covariates(self, cov: CovariateGrid) -> np.ndarray:
        target_minutes = np.arange(1, self.cfg.k_out + 1) * CADENCE_MINUTES
        return regrid(cov, target_minutes, (self.cfg.hidden_hw, self.cfg.hidden_hw))

    def predict(self, seq: RadarSequence, cov: CovariateGrid | None) -> np.ndarray:
        """Inference on the input-sequence query path; returns (K, 1, hw, hw)."""
        inputs = seq.frames[: self.cfg.t_in]
        cov_aligned = self.align_covariates(cov) if self.cfg.enable_pfm else None
        with ad.no_grad():
            pred, _ = forward_tape(
                make_leaves(self.params), self.cfg, inputs, cov_aligned, phase=2
            )
        return pred.value
