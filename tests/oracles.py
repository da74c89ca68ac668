"""Independent numpy references for the fusion operators, the objective, the
bilinear resize and the covariate blur.

The library runs each operator once, as a tape function in ``foucast.model``.
These plain-array versions are written without the tape so tests can check
the tape functions against separately stated math.  The 2-D SSIM window and a
literal sliding-window SSIM are kept here too: the library applies the window
separably.  ``eval_scores`` restates the eval report by per-pixel loops.  Transforms here call
``np.fft`` directly, so a wrong Hermitian expansion in the library does not
cancel out.  The resize reference samples each 2-D slice with
``scipy.ndimage.map_coordinates``, where the library builds weight matrices.
The convolution references unfold with ``sliding_window_view`` and fold back
with one strided add per tap, where the library uses one strided view and one
contiguous run per tap.  The covariate blur reference filters each lead and
channel as its own 2-D field with ``scipy.ndimage.gaussian_filter``, where the
library blurs every lead and channel in one numpy call.  ``train_step_by_name``
sums gradients and applies AdamW one named parameter at a time, where the
library works on one flat vector.  scipy serves only these references; the
library does not import it.
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


def per_lead_level_fields(coarse, u_field, v_field, n_levels=4):
    """(N, 5 * n_levels, H, W) covariate channels: one 2-D ``gaussian_filter`` per lead and channel.

    Variable-major, then level: three signed blurs of the coarse rain field,
    then the u and v wind fields, each at the level's own sigma.
    """
    fields = np.zeros((coarse.shape[0], 5 * n_levels) + coarse.shape[1:])
    for i in range(coarse.shape[0]):
        for lvl in range(n_levels):
            blur = 0.6 + 0.5 * lvl
            fields[i, lvl] = ndimage.gaussian_filter(coarse[i], 1.0 + 0.6 * lvl)
            fields[i, lvl + n_levels] = 0.8 * ndimage.gaussian_filter(coarse[i], 0.8 + 0.5 * lvl)
            fields[i, lvl + 2 * n_levels] = -ndimage.gaussian_filter(coarse[i], 1.0 + 0.5 * lvl)
            fields[i, lvl + 3 * n_levels] = ndimage.gaussian_filter(u_field[i], blur)
            fields[i, lvl + 4 * n_levels] = ndimage.gaussian_filter(v_field[i], blur)
    return fields


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


def sliding_window_ssim(pred, gt, window=11, sigma=1.5, k1=0.01, k2=0.03):
    """Literal sliding-window SSIM: explicit loops over window positions."""
    p = pred * 255.0
    g = gt * 255.0
    kern = gaussian_window(window, sigma)
    c1 = (k1 * 255.0) ** 2
    c2 = (k2 * 255.0) ** 2
    h, w = p.shape
    vals = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            pw = p[i : i + window, j : j + window]
            gw = g[i : i + window, j : j + window]
            mu_p = np.sum(kern * pw)
            mu_g = np.sum(kern * gw)
            var_p = np.sum(kern * pw * pw) - mu_p**2
            var_g = np.sum(kern * gw * gw) - mu_g**2
            cov = np.sum(kern * pw * gw) - mu_p * mu_g
            vals.append(
                ((2 * mu_p * mu_g + c1) * (2 * cov + c2))
                / ((mu_p**2 + mu_g**2 + c1) * (var_p + var_g + c2))
            )
    return float(np.mean(vals))


def eval_scores(forecasts, targets, thresholds):
    """What ``evaluate_model`` reports for these (K, 1, H, W) forecasts, by scalar loops.

    Every event, lead, threshold and pixel is visited one at a time; contingency
    counts are Python ints, summed over events and then over leads.  Returns a
    dict of the total ``csi`` and ``hss`` per threshold, the total ``mse``,
    ``mae`` and ``ssim``, and ``leads``: per lead, the threshold-mean ``csi`` and
    ``hss`` and the ``mse``, ``mae`` and ``ssim``.
    """
    k, _, h, w = targets[0].shape

    def scores(a, m, b, d):
        denom = (a + m) * (m + d) + (a + b) * (b + d)
        return (a / (a + m + b) if a + m + b else 0.0,
                2 * (a * d - b * m) / denom if denom else 0.0)

    leads = []
    totals = {t: [0, 0, 0, 0] for t in thresholds}
    total_se = total_ae = total_ssim = 0.0
    for lead in range(k):
        counts = {t: [0, 0, 0, 0] for t in thresholds}  # hits, misses, false alarms, negatives
        se = ae = frame_ssim = 0.0
        for pred, gt in zip(forecasts, targets):
            for t in thresholds:
                for i in range(h):
                    for j in range(w):
                        pe = pred[lead, 0, i, j] * 255.0 >= t
                        ge = gt[lead, 0, i, j] * 255.0 >= t
                        counts[t][(0 if ge else 2) if pe else (1 if ge else 3)] += 1
            for i in range(h):
                for j in range(w):
                    diff = 255.0 * (pred[lead, 0, i, j] - gt[lead, 0, i, j])
                    se += diff * diff
                    ae += abs(diff)
            frame_ssim += sliding_window_ssim(pred[lead, 0], gt[lead, 0])
        per_t = [scores(*counts[t]) for t in thresholds]
        n_pix = len(targets) * h * w
        leads.append({
            "csi": sum(c for c, _ in per_t) / len(per_t),
            "hss": sum(s for _, s in per_t) / len(per_t),
            "mse": se / n_pix, "mae": ae / n_pix, "ssim": frame_ssim / len(targets),
        })
        for t in thresholds:
            totals[t] = [x + y for x, y in zip(totals[t], counts[t])]
        total_se, total_ae, total_ssim = total_se + se, total_ae + ae, total_ssim + frame_ssim
    n_pix = k * len(targets) * h * w
    return {
        "csi": {t: scores(*totals[t])[0] for t in thresholds},
        "hss": {t: scores(*totals[t])[1] for t in thresholds},
        "mse": total_se / n_pix, "mae": total_ae / n_pix,
        "ssim": total_ssim / (k * len(targets)), "leads": leads,
    }


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


def sliding_im2col(x, k, stride, pad):
    """(c*k*k, n_h*n_w) patch matrix of a (c, h, w) array, and (n_h, n_w)."""
    c = x.shape[0]
    x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    n_h, n_w = win.shape[1], win.shape[2]
    return np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2).reshape(c * k * k, n_h * n_w)), n_h, n_w


def strided_col2im(cols, c, k, stride, padded_hw, n_h, n_w):
    """Fold a patch matrix back into a (c, H, W) image: one strided add per tap, in (i, j) order."""
    buf = np.zeros((c,) + tuple(padded_hw))
    cols = cols.reshape(c, k, k, n_h, n_w)
    for i in range(k):
        for j in range(k):
            buf[:, i : i + stride * (n_h - 1) + 1 : stride,
                j : j + stride * (n_w - 1) + 1 : stride] += cols[:, i, j]
    return buf


def conv2d_reference(x, w, b, g, stride, pad):
    """Forward value and (gx, gw, gb) of a convolution, by explicit im2col GEMMs."""
    cout, cin, k, _ = w.shape
    cols, n_h, n_w = sliding_im2col(x, k, stride, pad)
    w2 = w.reshape(cout, cin * k * k)
    out = (w2 @ cols).reshape(cout, n_h, n_w) + b[:, None, None]
    g2 = g.reshape(cout, n_h * n_w)
    h, wd = x.shape[1] + 2 * pad, x.shape[2] + 2 * pad
    gx = strided_col2im(w2.T @ g2, cin, k, stride, (h, wd), n_h, n_w)
    return out, (gx[:, pad : h - pad, pad : wd - pad], (g2 @ cols.T).reshape(w.shape), g.sum(axis=(1, 2)))


def conv2d_transpose_reference(x, w, b, stride, pad):
    """Forward value of a transposed convolution: scatter of the input's GEMM columns."""
    cin, cout, k, _ = w.shape
    _, h, wd = x.shape
    hp, wp = stride * (h - 1) + k, stride * (wd - 1) + k
    cols = w.reshape(cin, cout * k * k).T @ x.reshape(cin, h * wd)
    full = strided_col2im(cols, cout, k, stride, (hp, wp), h, wd)
    return full[:, pad : hp - pad, pad : wp - pad] + b[:, None, None]


def train_step_by_name(params, sample_grads, m, v, step, phase, *, lr, beta1, beta2, eps,
                       weight_decay):
    """The optimizer half of a train step, one parameter at a time.

    ``params`` and each of ``sample_grads`` map names to arrays; ``m`` and ``v``
    are the moments over every parameter's real coordinates in name order, a
    complex entry as its (re, im) pair.  Gradients are summed per name, last
    sample first, then AdamW updates each name's coordinates; phase 2 keeps
    ``memory.slots`` and its moments, and phase 1 renormalizes the slots to unit
    modulus.  Returns the new params dict and the new m and v.
    """
    t = step + 1
    out, new_m, new_v = {}, [], []
    off = 0
    for name, p in params.items():
        g = sample_grads[-1][name].copy()
        for earlier in reversed(sample_grads[:-1]):
            g += earlier[name]
        theta = np.ascontiguousarray(p).view(np.float64).ravel()
        g = np.ascontiguousarray(g).view(np.float64).ravel()
        m0, v0 = m[off : off + theta.size], v[off : off + theta.size]
        off += theta.size
        if phase == 2 and name == "memory.slots":
            out[name], m1, v1 = p.copy(), m0.copy(), v0.copy()
        else:
            m1 = beta1 * m0 + (1.0 - beta1) * g
            v1 = beta2 * v0 + (1.0 - beta2) * g**2
            m_hat = m1 / (1.0 - beta1**t)
            v_hat = v1 / (1.0 - beta2**t)
            theta = theta - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * theta)
            out[name] = theta.view(p.dtype).reshape(p.shape)
        new_m.append(m1)
        new_v.append(v1)
    if phase == 1:
        out["memory.slots"] = unit_normalize(out["memory.slots"])
    return out, np.concatenate(new_m), np.concatenate(new_v)
