"""Independent numpy references for the fusion operators, the objective and
the bilinear resize.

The library runs each operator once, as a tape function in ``foucast.model``.
These plain-array versions are written without the tape so tests can check
the tape functions against separately stated math.  The 2-D SSIM window is
kept here too: the library applies it separably.  Transforms here call
``np.fft`` directly, so a wrong Hermitian expansion in the library does not
cancel out.  The resize reference samples each 2-D slice with
``scipy.ndimage.map_coordinates``, where the library builds weight matrices.
"""

import numpy as np
from scipy import ndimage


def map_coordinates_resize(field, out_hw):
    """Bilinear resize of the trailing two axes, one ``map_coordinates`` call per slice.

    Endpoint-aligned coordinates; a 1-pixel output axis samples the centre.
    """
    field = np.asarray(field, dtype=np.float64)
    h, w = field.shape[-2], field.shape[-1]
    oh, ow = out_hw
    rows = np.linspace(0.0, h - 1.0, oh) if oh > 1 else np.array([(h - 1) / 2.0])
    cols = np.linspace(0.0, w - 1.0, ow) if ow > 1 else np.array([(w - 1) / 2.0])
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    coords = np.stack([rr.ravel(), cc.ravel()])
    flat = field.reshape(-1, h, w)
    out = np.stack([ndimage.map_coordinates(f, coords, order=1, mode="nearest")
                    for f in flat])
    return out.reshape(field.shape[:-2] + (oh, ow))


def naive_dft2(x):
    """O(N^4) reference DFT of an (H, W, C) field: explicit loops over bins, per channel."""
    h, w, c = x.shape
    out = np.zeros((h, w, c), dtype=np.complex128)
    ii = np.arange(h)[:, None]
    jj = np.arange(w)[None, :]
    for k1 in range(h):
        for k2 in range(w):
            kern = np.exp(-2j * np.pi * (k1 * ii / h + k2 * jj / w))
            for ch in range(c):
                out[k1, k2, ch] = np.sum(x[:, :, ch] * kern)
    return out


def unit_normalize(z, eps=1e-12):
    """z / |z| elementwise; entries with |z| < eps map to 1+0j."""
    z = np.asarray(z, dtype=np.complex128)
    mag = np.abs(z)
    small = mag < eps
    out = np.divide(z, np.where(small, 1.0, mag))
    out[small] = 1.0 + 0.0j
    return out


def gaussian_window(size=11, sigma=1.5):
    """Normalised 2-D Gaussian SSIM window, built as a full 2-D array."""
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma**2))
    k = np.outer(g, g)
    return k / k.sum()


def afno_apply(z, w1, w2, b1, b2):
    """Per-bin block-diagonal channel mixing: W2 * relu(W1 * z + b1) + b2.

    ``w1`` is (n_blocks, hidden_b, in_b), ``w2`` is (n_blocks, out_b,
    hidden_b); ``z`` is (H, W, C_in) complex.  Returns (H, W, C_out).
    """
    z = np.asarray(z, dtype=np.complex128)
    nb = w1.shape[0]
    zb = z.reshape(z.shape[0], z.shape[1], nb, -1)
    h = np.einsum("ned,hwnd->hwne", w1, zb) + b1
    h = np.maximum(h.real, 0.0) + 1j * np.maximum(h.imag, 0.0)
    out = np.einsum("noe,hwne->hwno", w2, h) + b2
    return out.reshape(z.shape[0], z.shape[1], w2.shape[0] * w2.shape[1])


def freq_attention(f_in, w_learned):
    """Elementwise complex product with the learned per-frequency operator."""
    return np.asarray(w_learned, dtype=np.complex128) * np.asarray(f_in, dtype=np.complex128)


def reinject_highfreq(f_in, w_learned, gate):
    """Attended output plus the gated discarded residual; gate is real (C,)."""
    f_in = np.asarray(f_in, dtype=np.complex128)
    gate = np.asarray(gate, dtype=np.float64)
    f_out = freq_attention(f_in, w_learned)
    return f_out + gate * (f_in - f_out)


def memory_match(query, slots):
    """Per-bin softmax attention of a normalized query over the slot bank.

    Returns ``(alpha, f_match)``: (H, W, S) weights and the (H, W, C) convex
    combination of the normalized slots.
    """
    q = unit_normalize(np.asarray(query, dtype=np.complex128))
    slots = unit_normalize(np.asarray(slots, dtype=np.complex128))
    # real part of the complex inner product over channels
    scores = np.einsum("hwc,sc->hws", q, np.conj(slots)).real
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    alpha = e / e.sum(axis=-1, keepdims=True)
    f_match = np.einsum("hws,sc->hwc", alpha, slots)
    return alpha, f_match


def phase_align(f_hid, f_match, eps=1e-6):
    """Rotate hidden phases by (1 - sim)/2 of the shortest arc to f_match."""
    f_hid = np.asarray(f_hid, dtype=np.complex128)
    f_match = np.asarray(f_match, dtype=np.complex128)
    unit_hid = unit_normalize(f_hid)
    sim = (unit_hid * np.conj(f_match)).real
    w_phase = 0.5 * (1.0 - sim)
    dphi = np.angle(f_match * np.conj(unit_hid))  # shortest arc, in (-pi, pi]
    rotated = f_hid * np.exp(1j * w_phase * dphi)
    return np.where(np.abs(f_match) < eps, f_hid, rotated)


def alignment_scores(f_hid, f_met, eps=1e-8):
    """Cosine-like phase-alignment score per channel and bin, in [-1, 1]."""
    f_hid = np.asarray(f_hid, dtype=np.complex128)
    f_met = np.asarray(f_met, dtype=np.complex128)
    num = (f_hid * np.conj(f_met)).real
    den = np.abs(f_hid) * np.abs(f_met) + eps
    return num / den


def alignment_weights(f_hid, f_met, eps=1e-8):
    """Softmax of alignment scores across channels, per spatial-frequency bin."""
    s = alignment_scores(f_hid, f_met, eps)
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def modulate(f_hid, f_met, beta_logit, eps_align=1e-8, eps_fuse=1e-6):
    """Attention-reweighted amplitude with phasors fused at sigmoid(beta_logit)."""
    f_hid = np.asarray(f_hid, dtype=np.complex128)
    f_met = np.asarray(f_met, dtype=np.complex128)
    amp = np.abs(f_hid) * alignment_weights(f_hid, f_met, eps_align)
    beta = float(1.0 / (1.0 + np.exp(-beta_logit)))
    p_hid = unit_normalize(f_hid)
    p_met = unit_normalize(f_met)
    z = beta * p_hid + (1.0 - beta) * p_met
    mag = np.abs(z)
    degenerate = mag < eps_fuse
    fused = np.where(degenerate, p_hid, np.divide(z, np.where(degenerate, 1.0, mag)))
    return amp * fused


def combined_loss(pred, gt, lam):
    """MSE plus ``lam`` times the mean modulus of the per-frame DFT difference."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    mse_term = float(np.mean((pred - gt) ** 2))
    if lam == 0.0:
        return mse_term
    frames = (-1,) + pred.shape[-2:]
    pf = np.fft.fft2(pred.reshape(frames), axes=(1, 2))
    gf = np.fft.fft2(gt.reshape(frames), axes=(1, 2))
    return mse_term + lam * float(np.mean(np.abs(pf - gf)))


def numpy_hidden_composition(h, cov_emb, f_match, params, cfg):
    """Step-by-step numpy composition of the spectral hidden stack."""
    z = np.fft.rfft2(h, axes=(0, 1))
    if cov_emb is not None:
        z = modulate(z, np.fft.rfft2(cov_emb, axes=(0, 1)), float(params["mod.beta_logit"]))
    if f_match is not None:
        z = phase_align(z, f_match, eps=1e-6)
    for layer in range(cfg.depth_l):
        attn = params[f"blk{layer}.attn"]
        if cfg.enable_ifa:
            z = reinject_highfreq(z, attn, params[f"blk{layer}.gate"])
        else:
            z = freq_attention(z, attn)
        name = f"blk{layer}.afno"
        z = afno_apply(z, params[f"{name}.w1"], params[f"{name}.w2"],
                       params[f"{name}.b1"], params[f"{name}.b2"])
    return np.fft.irfft2(z, s=(cfg.hidden_hw, cfg.hidden_hw), axes=(0, 1))
