"""Low-level differentiable operations for the numpy deep-learning substrate.

The paper's landing-zone selector is a dilated convolutional segmentation
network (MSDnet).  Since no deep-learning framework is available offline,
this module implements the required primitives from scratch:

* dilated / strided 2-D convolution via ``im2col``/``col2im``,
* an inference-only convolution (:func:`conv2d_infer`) with blocked
  im2col, buffer reuse and channel-indexed inputs,
* non-overlapping max pooling,
* bilinear and nearest-neighbour resizing with exact adjoints,
* numerically-stable softmax / log-softmax.

All forward functions return ``(output, cache)`` where ``cache`` carries
whatever the matching backward function needs.  Arrays are NCHW unless a
function says otherwise.

Inference convolution
---------------------
The training path (:func:`conv2d_forward`) materialises the full im2col
matrix because :func:`conv2d_backward` needs it.  Inference does not, so
:func:`conv2d_infer` runs a *blocked* im2col instead: patch columns are
materialised one cache-sized row block at a time into a reused scratch
buffer and fed straight to GEMM.  The block geometry depends only on the
per-sample convolution geometry — never on the batch size — so a
``T``-tiled batched forward performs exactly the same per-sample GEMM
calls as ``T`` sequential forwards, which keeps the batched MC-dropout
engine's bit-for-bit contract intact (OpenBLAS GEMM is deterministic per
slice, but *not* across different column splits, so the splits must
match).  When one block covers the whole output the GEMM is exactly
:func:`conv2d_forward`'s, so the two agree bit for bit.  Everything is
float32-contiguous end to end.

The optional ``index`` argument covers inputs whose samples are built
channel by channel from a few candidate planes, as after a channel
dropout in the MC-dropout suffix: sample ``n``'s channel ``c`` is plane
``index[n, c]``'s channel ``c``.  im2col works channel by channel, so a
single-block geometry packs each plane once and then gathers every
sample's column blocks (one contiguous ``kh * kw * L`` block per
channel) into the pooled buffer; the per-sample GEMM is unchanged, so
the output is bit-identical to the materialised input's.  A
multi-block geometry materialises the input and takes the usual path.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "conv2d_infer",
    "clear_conv_buffers",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "linear_resize_weights",
    "resize_bilinear_forward",
    "resize_bilinear_backward",
    "resize_nearest_forward",
    "resize_nearest_backward",
    "softmax",
    "log_softmax",
]


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def conv_output_size(in_size: int, kernel: int, stride: int, padding: int,
                     dilation: int) -> int:
    """Spatial output size of a convolution along one axis."""
    effective = (kernel - 1) * dilation + 1
    out = (in_size + 2 * padding - effective) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size {out} <= 0 "
            f"(in={in_size}, kernel={kernel}, stride={stride}, "
            f"padding={padding}, dilation={dilation})")
    return out


def _pad_nchw(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes of an NCHW array.

    Manual copy into a zero buffer: ~2x cheaper than ``np.pad`` on the
    conv hot path.
    """
    if padding <= 0:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    return xp


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int,
           padding: int, dilation: int) -> tuple[np.ndarray, tuple]:
    """Unfold image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(kh, kw)`` kernel extents.

    Returns
    -------
    cols:
        Array of shape ``(N, C * kh * kw, out_h * out_w)``.
    geom:
        Geometry tuple consumed by :func:`col2im`.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)

    xp = _pad_nchw(x, padding)
    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        row0 = i * dilation
        row1 = row0 + stride * out_h
        for j in range(kw):
            col0 = j * dilation
            col1 = col0 + stride * out_w
            cols[:, :, i, j] = xp[:, :, row0:row1:stride, col0:col1:stride]

    geom = (x.shape, kernel, stride, padding, dilation, out_h, out_w)
    return cols.reshape(n, c * kh * kw, out_h * out_w), geom


def col2im(cols: np.ndarray, geom: tuple) -> np.ndarray:
    """Adjoint of :func:`im2col` (scatter-add columns back to an image)."""
    (x_shape, kernel, stride, padding, dilation, out_h, out_w) = geom
    n, c, h, w = x_shape
    kh, kw = kernel
    cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)

    hp, wp = h + 2 * padding, w + 2 * padding
    xp = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        row0 = i * dilation
        row1 = row0 + stride * out_h
        for j in range(kw):
            col0 = j * dilation
            col1 = col0 + stride * out_w
            xp[:, :, row0:row1:stride, col0:col1:stride] += cols6[:, :, i, j]

    if padding > 0:
        return xp[:, :, padding:padding + h, padding:padding + w]
    return xp


def conv2d_forward(x: np.ndarray, weight: np.ndarray,
                   bias: np.ndarray | None, stride: int = 1,
                   padding: int = 0,
                   dilation: int = 1) -> tuple[np.ndarray, tuple]:
    """2-D convolution forward pass.

    ``x`` is ``(N, C_in, H, W)``; ``weight`` is ``(C_out, C_in, kh, kw)``;
    ``bias`` is ``(C_out,)`` or ``None``.
    """
    c_out, c_in, kh, kw = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(
            f"input has {x.shape[1]} channels, weight expects {c_in}")
    cols, geom = im2col(x, (kh, kw), stride, padding, dilation)
    w2 = weight.reshape(c_out, c_in * kh * kw)
    # (N, C_out, L) = (C_out, K) @ (N, K, L) as a broadcast batched GEMM.
    # np.matmul scales linearly in N here, where the equivalent einsum
    # path degrades sharply for N > 1 — this is the hot path of the
    # batched MC-dropout engine (see repro.segmentation.bayesian).
    out = np.matmul(w2, cols)
    if bias is not None:
        out = out + bias[None, :, None]
    n = x.shape[0]
    out_h, out_w = geom[5], geom[6]
    y = out.reshape(n, c_out, out_h, out_w)
    cache = (cols, geom, weight, bias is not None)
    return y, cache


def conv2d_backward(dy: np.ndarray, cache: tuple
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(dx, dweight, dbias)``; ``dbias`` is ``None`` when the
    forward pass had no bias.
    """
    cols, geom, weight, has_bias = cache
    c_out, c_in, kh, kw = weight.shape
    n = dy.shape[0]
    dy2 = dy.reshape(n, c_out, -1)  # (N, C_out, L)

    dbias = dy2.sum(axis=(0, 2)) if has_bias else None
    # dW = sum_n dy2[n] @ cols[n]^T, again as a batched GEMM.
    dw2 = np.matmul(dy2, cols.transpose(0, 2, 1)).sum(axis=0)
    dweight = dw2.reshape(weight.shape)
    # dcols = W^T @ dy2
    w2 = weight.reshape(c_out, c_in * kh * kw)
    dcols = np.matmul(w2.T, dy2)
    dx = col2im(dcols, geom)
    return dx, dweight, dbias


# ----------------------------------------------------------------------
# Inference convolution (blocked im2col, buffer reuse)
# ----------------------------------------------------------------------
#: Per-sample im2col block budget in KiB.  The block geometry is derived
#: from per-sample quantities only (K, out_w, itemsize) so batched and
#: sequential forwards split columns identically — the bit-for-bit
#: contract of the batched MC engine.
_BLOCK_KIB = 384

#: Scratch-buffer pool for blocked im2col, keyed by required capacity
#: class.  Bounded; single-threaded use assumed (the whole substrate
#: is).  Cleared via :func:`clear_conv_buffers`.
_COL_BUFFERS: dict[tuple, np.ndarray] = {}
_COL_BUFFER_CAP = 32


def clear_conv_buffers() -> None:
    """Drop all pooled conv scratch buffers."""
    _COL_BUFFERS.clear()


def _col_buffer(capacity: int, dtype, slot: str = "cols") -> np.ndarray:
    """A flat scratch array of at least ``capacity`` elements.

    Keyed by the rounded-up capacity so repeated layer geometries reuse
    one allocation instead of paying a multi-MB ``np.empty`` (and the
    page faults behind it) per conv call.  ``slot`` separates buffers
    that must be live at the same time (the gathered path's candidate
    columns and the per-sample columns built from them).
    """
    # Round capacity up to the next power of two so nearby geometries
    # share an entry and the pool stays small.
    cap = 1 << (int(capacity) - 1).bit_length()
    key = (cap, np.dtype(dtype).str, slot)
    buf = _COL_BUFFERS.get(key)
    if buf is None:
        if len(_COL_BUFFERS) >= _COL_BUFFER_CAP:
            _COL_BUFFERS.pop(next(iter(_COL_BUFFERS)))
        buf = np.empty(cap, dtype=dtype)
        _COL_BUFFERS[key] = buf
    return buf


def _pack_cols(cols: np.ndarray, xp: np.ndarray, r0: int, stride: int,
               dilation: int) -> None:
    """im2col of output rows ``r0 .. r0 + rb`` of padded ``xp``.

    ``cols`` is ``(N, C, kh, kw, rb, out_w)``; every (sample, channel)
    pair owns one contiguous ``kh * kw * rb * out_w`` block of it.
    """
    kh, kw, rb, out_w = cols.shape[2:]
    for i in range(kh):
        a0 = i * dilation + r0 * stride
        for j in range(kw):
            c0 = j * dilation
            cols[:, :, i, j] = xp[:, :, a0:a0 + stride * rb:stride,
                                  c0:c0 + stride * out_w:stride]


def _conv2d_infer_blocked(x: np.ndarray, weight: np.ndarray,
                          bias: np.ndarray | None, stride: int,
                          padding: int, dilation: int,
                          index: np.ndarray | None = None) -> np.ndarray:
    """Blocked im2col + fused GEMM, NCHW.

    Output rows are processed in blocks sized so one *per-sample* im2col
    block stays within :data:`_BLOCK_KIB` KiB; each block is packed into a
    pooled scratch buffer and multiplied immediately (the fused path),
    so the full ``(N, K, L)`` column matrix never exists.  A single
    block degenerates to exactly :func:`conv2d_forward`'s GEMM.

    With ``index`` (see :func:`conv2d_infer`) a single-block geometry
    packs the candidate planes once and gathers each sample's columns
    channel block by channel block; a multi-block geometry materialises
    the indexed input first.
    """
    n = x.shape[0] if index is None else index.shape[0]
    c, h, w = x.shape[1:]
    c_out, c_in, kh, kw = weight.shape
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    k = c_in * kh * kw
    w2 = weight.reshape(c_out, k)

    itemsize = x.dtype.itemsize
    # Per-sample block budget: independent of N by construction (see
    # module docstring — this is what keeps batched == sequential).
    rows = max(1, int(_BLOCK_KIB * 1024 // (k * out_w * itemsize)))
    rows = min(rows, out_h)
    if index is not None and rows < out_h:
        x = x[index, np.arange(c, dtype=np.intp)]
        index = None
    xp = _pad_nchw(x, padding)

    if rows == out_h:
        # Single block: pack once into the pooled buffer, one GEMM.
        size = n * k * out_h * out_w
        cols = _col_buffer(size, x.dtype)[:size].reshape(
            n, c, kh, kw, out_h, out_w)
        if index is None:
            _pack_cols(cols, xp, 0, stride, dilation)
        else:
            planes = x.shape[0]
            psize = planes * k * out_h * out_w
            cand = _col_buffer(psize, x.dtype, slot="planes")[
                :psize].reshape(planes, c, kh, kw, out_h, out_w)
            _pack_cols(cand, xp, 0, stride, dilation)
            # Row ``s * C + c`` of the flat views is plane s's channel-c
            # block.  mode="clip" writes straight into ``out`` (the
            # default "raise" buffers it); the caller checked bounds.
            src = (index * c + np.arange(c, dtype=np.intp)).ravel()
            np.take(cand.reshape(planes * c, -1), src, axis=0,
                    out=cols.reshape(n * c, -1), mode="clip")
        out = np.matmul(w2, cols.reshape(n, k, out_h * out_w))
        y = out.reshape(n, c_out, out_h, out_w)
    else:
        y = np.empty((n, c_out, out_h, out_w), dtype=x.dtype)
        flat = _col_buffer(n * k * rows * out_w, x.dtype)
        for r0 in range(0, out_h, rows):
            rb = min(rows, out_h - r0)
            cols = flat[:n * k * rb * out_w].reshape(n, c, kh, kw, rb,
                                                     out_w)
            _pack_cols(cols, xp, r0, stride, dilation)
            res = np.matmul(w2, cols.reshape(n, k, rb * out_w))
            y[:, :, r0:r0 + rb, :] = res.reshape(n, c_out, rb, out_w)
    if bias is not None:
        y += bias[None, :, None, None]
    return y


def conv2d_infer(x: np.ndarray, weight: np.ndarray,
                 bias: np.ndarray | None, stride: int = 1,
                 padding: int = 0, dilation: int = 1,
                 index: np.ndarray | None = None) -> np.ndarray:
    """Inference-only 2-D convolution.

    Same result contract as :func:`conv2d_forward` but returns only the
    output: no im2col matrix is retained (inference never calls
    backward), the blocked im2col reuses pooled scratch buffers, and a
    batch that is a stride-0 broadcast of one sample (the batched MC
    engine tiling an image) is computed once and re-broadcast.

    ``index`` selects the input channel by channel: ``x`` is then a
    stack of ``S`` candidate planes ``(S, C, H, W)`` and ``index`` an
    ``(N, C)`` array of plane numbers in ``[0, S)``, and the result
    equals ``conv2d_infer(x[index, arange(C)])`` bit for bit.  When
    ``N`` is larger than ``S`` this packs each plane's columns once
    instead of once per sample (the MC suffix after a channel dropout;
    see :meth:`repro.segmentation.msdnet.MSDNet.forward_suffix`).
    """
    c_in = weight.shape[1]
    if x.shape[1] != c_in:
        raise ValueError(
            f"input has {x.shape[1]} channels, weight expects {c_in}")
    if index is not None:
        index = np.asarray(index, dtype=np.intp)
        if index.ndim != 2 or index.shape[1] != c_in:
            raise ValueError(
                f"index must have shape (N, {c_in}), got {index.shape}")
        if index.size and (index.min() < 0
                           or index.max() >= x.shape[0]):
            raise ValueError(
                f"index values must lie in [0, {x.shape[0]})")
    elif x.shape[0] > 1 and x.strides[0] == 0:
        # Every batch element is the same sample: compute one, broadcast.
        y1 = conv2d_infer(x[:1], weight, bias, stride, padding, dilation)
        return np.broadcast_to(y1, (x.shape[0],) + y1.shape[1:])
    return _conv2d_infer_blocked(x, weight, bias, stride, padding,
                                 dilation, index)


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def maxpool2d_forward(x: np.ndarray,
                      kernel: int) -> tuple[np.ndarray, tuple]:
    """Non-overlapping max pooling with ``stride == kernel``.

    The segmentation networks in this library only need non-overlapping
    pooling; restricting to that case permits an exact reshape-based
    implementation.
    """
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"input spatial size ({h}, {w}) not divisible by pool "
            f"kernel {kernel}")
    oh, ow = h // kernel, w // kernel
    xr = x.reshape(n, c, oh, kernel, ow, kernel)
    y = xr.max(axis=(3, 5))
    # Mask of (first) argmax positions for the backward scatter.
    mask = (xr == y[:, :, :, None, :, None])
    # Break ties: keep only the first max in each window.  The running
    # count fits uint8 for every realistic pool kernel (< 16), keeping
    # the intermediate at 1 byte/element instead of a wide default.
    flat = mask.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, -1)
    count_dtype = np.uint8 if kernel * kernel < 256 else np.intp
    first = np.cumsum(flat, axis=-1, dtype=count_dtype) == 1
    flat &= first
    mask = flat.reshape(n, c, oh, ow, kernel, kernel).transpose(
        0, 1, 2, 4, 3, 5)
    return y, (mask, x.shape, kernel)


def maxpool2d_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    """Backward pass of :func:`maxpool2d_forward`."""
    mask, x_shape, kernel = cache
    n, c, h, w = x_shape
    oh, ow = h // kernel, w // kernel
    dxr = mask * dy[:, :, :, None, :, None]
    return dxr.reshape(n, c, h, w)


# ----------------------------------------------------------------------
# Resizing
# ----------------------------------------------------------------------
#: Memoised interpolation matrices, keyed by (in_len, out_len, dtype).
#: Upsample layers rebuild the same tiny matrix every forward; caching
#: removes the ``np.add.at`` scatter from the hot path.  Entries are
#: marked read-only because they are shared.
_RESIZE_W_CACHE: dict[tuple, np.ndarray] = {}
_RESIZE_W_CACHE_CAP = 32


def linear_resize_weights(in_len: int, out_len: int,
                          dtype=np.float32) -> np.ndarray:
    """Dense 1-D linear-interpolation matrix ``W`` with ``y = W @ x``.

    Uses the half-pixel-centre convention (``align_corners=False``).  The
    matrix form makes the adjoint exact (``dx = W.T @ dy``), which keeps
    the bilinear-upsampling layer gradient-checkable.  The default dtype
    is float32 — the substrate's working precision; pass
    ``dtype=np.float64`` explicitly for float64 gradient checking.
    Returned arrays are cached and read-only; copy before mutating.
    """
    if in_len <= 0 or out_len <= 0:
        raise ValueError("lengths must be positive")
    key = (int(in_len), int(out_len), np.dtype(dtype).str)
    cached = _RESIZE_W_CACHE.get(key)
    if cached is not None:
        return cached
    # The fractional coordinates are computed in float64 regardless of
    # the target dtype so the cast to float32 happens once, on the final
    # weights — not on intermediate arithmetic.
    w = np.zeros((out_len, in_len), dtype=np.float64)
    coords = np.clip((np.arange(out_len) + 0.5) * in_len / out_len - 0.5,
                     0, in_len - 1)
    i0 = np.floor(coords).astype(int)
    i1 = np.minimum(i0 + 1, in_len - 1)
    frac = coords - i0
    rows = np.arange(out_len)
    np.add.at(w, (rows, i0), 1.0 - frac)
    np.add.at(w, (rows, i1), frac)
    w = np.ascontiguousarray(w.astype(dtype, copy=False))
    w.setflags(write=False)
    if len(_RESIZE_W_CACHE) >= _RESIZE_W_CACHE_CAP:
        _RESIZE_W_CACHE.pop(next(iter(_RESIZE_W_CACHE)))
    _RESIZE_W_CACHE[key] = w
    return w


def resize_bilinear_forward(x: np.ndarray, out_h: int, out_w: int
                            ) -> tuple[np.ndarray, tuple]:
    """Bilinear resize of NCHW input to ``(out_h, out_w)``.

    Runs as two small GEMMs (``wr @ x @ wc.T``) rather than a 3-operand
    einsum — same contraction, without the per-call path search.
    """
    in_h, in_w = x.shape[-2], x.shape[-1]
    wr = linear_resize_weights(in_h, out_h, dtype=x.dtype)
    wc = linear_resize_weights(in_w, out_w, dtype=x.dtype)
    # y[n,c,i,j] = sum_{h,w} wr[i,h] x[n,c,h,w] wc[j,w]
    y = np.matmul(wr, np.matmul(x, wc.T))
    return y, (wr, wc)


def resize_bilinear_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    """Adjoint of :func:`resize_bilinear_forward`."""
    wr, wc = cache
    return np.matmul(wr.T, np.matmul(dy, wc))


def resize_nearest_forward(x: np.ndarray, out_h: int, out_w: int
                           ) -> tuple[np.ndarray, tuple]:
    """Nearest-neighbour resize of NCHW input."""
    in_h, in_w = x.shape[-2], x.shape[-1]
    coords_r = np.clip(np.round((np.arange(out_h) + 0.5) * in_h / out_h
                                - 0.5).astype(int), 0, in_h - 1)
    coords_c = np.clip(np.round((np.arange(out_w) + 0.5) * in_w / out_w
                                - 0.5).astype(int), 0, in_w - 1)
    y = x[..., coords_r[:, None], coords_c[None, :]]
    return np.ascontiguousarray(y), (x.shape, coords_r, coords_c)


def resize_nearest_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    """Adjoint of :func:`resize_nearest_forward` (scatter-add)."""
    x_shape, coords_r, coords_c = cache
    dx = np.zeros(x_shape, dtype=dy.dtype)
    rr = coords_r[:, None]
    cc = coords_c[None, :]
    np.add.at(dx, (..., rr, cc), dy)
    return dx


# ----------------------------------------------------------------------
# Softmax
# ----------------------------------------------------------------------
def softmax(x: np.ndarray, axis: int = 1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    Floating inputs keep their dtype (float32 stays float32 — the
    substrate's working precision); integer inputs are promoted to
    float32, not float64.
    """
    shifted = x - x.max(axis=axis, keepdims=True)
    if not np.issubdtype(shifted.dtype, np.floating):
        shifted = shifted.astype(np.float32)
    ex = np.exp(shifted, out=shifted)  # reuse the temporary
    ex /= ex.sum(axis=axis, keepdims=True)
    return ex


def log_softmax(x: np.ndarray, axis: int = 1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis`` (dtype-preserving,
    with the same integer-to-float32 rule as :func:`softmax`)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    if not np.issubdtype(shifted.dtype, np.floating):
        shifted = shifted.astype(np.float32)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
