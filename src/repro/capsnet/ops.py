"""Numerical building blocks of the CapsuleNet (float reference).

Everything is implemented directly on numpy arrays: im2col-based valid
convolution, ReLU, the squashing nonlinearity of Equation (1), a numerically
stable softmax and the margin loss used by the lightweight trainer.

The squashing function and its derivative (paper Fig 3, peak of the
derivative at x = 1/sqrt(3) ~ 0.577, value ~ 0.6495) are exposed in scalar
form for the Fig 3 experiment.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def im2col(
    x: np.ndarray, kernel_size: int, stride: int, channels_last: bool = False
) -> np.ndarray:
    """Extract convolution patches from a ``(..., C, H, W)`` tensor.

    Returns an array of shape ``(..., out_h * out_w, C * kernel_size**2)``
    whose rows are flattened receptive fields ordered row-major over output
    positions; leading axes (a batch) carry through.  Each row is ordered
    ``(C, kh, kw)``, or ``(kh, kw, C)`` when ``channels_last`` — the cheaper
    copy when ``x``'s channels are adjacent in memory.  Works for any dtype
    (the quantized path reuses it on raw integer arrays).
    """
    if x.ndim < 3:
        raise ShapeError(f"im2col expects (..., C, H, W), got shape {x.shape}")
    *lead, channels, height, width = x.shape
    if height < kernel_size or width < kernel_size:
        raise ShapeError(
            f"input {height}x{width} smaller than kernel {kernel_size}"
        )
    out_h = (height - kernel_size) // stride + 1
    out_w = (width - kernel_size) // stride + 1
    *lead_strides, s_c, s_h, s_w = x.strides
    window = (kernel_size, kernel_size, channels) if channels_last else (
        channels, kernel_size, kernel_size
    )
    window_strides = (s_h, s_w, s_c) if channels_last else (s_c, s_h, s_w)
    windows = np.lib.stride_tricks.as_strided(
        x,
        (*lead, out_h, out_w, *window),
        (*lead_strides, s_h * stride, s_w * stride, *window_strides),
        writeable=False,
    )
    return windows.reshape(
        *lead, out_h * out_w, channels * kernel_size * kernel_size
    )


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
) -> np.ndarray:
    """Valid 2-D convolution of a single image.

    Parameters
    ----------
    x:
        Input tensor of shape ``(C, H, W)``.
    weight:
        Filters of shape ``(O, C, K, K)``.
    bias:
        Optional per-output-channel bias of shape ``(O,)``.
    stride:
        Convolution stride (equal in both dimensions).

    Returns
    -------
    numpy.ndarray
        Output tensor of shape ``(O, out_h, out_w)``.
    """
    out_channels, in_channels, kernel_size, kernel_size_w = weight.shape
    if kernel_size != kernel_size_w:
        raise ShapeError("only square kernels are supported")
    if x.shape[0] != in_channels:
        raise ShapeError(
            f"input has {x.shape[0]} channels, weight expects {in_channels}"
        )
    from repro.capsnet.config import conv_output_size

    out_h = conv_output_size(x.shape[1], kernel_size, stride)
    out_w = conv_output_size(x.shape[2], kernel_size, stride)
    patches = im2col(x, kernel_size, stride)
    wmat = weight.reshape(out_channels, -1)
    out = patches @ wmat.T
    if bias is not None:
        out = out + bias
    return out.T.reshape(out_channels, out_h, out_w)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def squash(s: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Squashing nonlinearity of Equation (1), applied along ``axis``.

    ``v = (||s||^2 / (1 + ||s||^2)) * (s / ||s||) = s * ||s|| / (1 + ||s||^2)``.
    The zero vector maps to the zero vector.
    """
    norm = np.linalg.norm(s, axis=axis, keepdims=True)
    return s * norm / (1.0 + norm * norm + eps)


def squash_scalar(x: np.ndarray | float) -> np.ndarray:
    """Single-dimensional squashing (paper Fig 3): ``y = x^2 / (1 + x^2)``.

    For a one-dimensional capsule with non-negative input, the squashed
    magnitude is ``x * |x| / (1 + x^2)``; the paper plots the non-negative
    branch.
    """
    arr = np.asarray(x, dtype=np.float64)
    return arr * np.abs(arr) / (1.0 + arr * arr)


def squash_scalar_derivative(x: np.ndarray | float) -> np.ndarray:
    """First derivative of :func:`squash_scalar` for non-negative input.

    ``d/dx [x^2/(1+x^2)] = 2x / (1+x^2)^2``; its maximum sits at
    ``x = 1/sqrt(3)`` with value ``3*sqrt(3)/8 ~ 0.6495`` — the paper's
    reported peak (0.5767, 0.6495).
    """
    arr = np.asarray(x, dtype=np.float64)
    return 2.0 * np.abs(arr) / (1.0 + arr * arr) ** 2


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def capsule_lengths(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Euclidean length of each capsule vector (the class scores)."""
    return np.linalg.norm(v, axis=axis)


def margin_loss(
    lengths: np.ndarray,
    target: int,
    m_plus: float = 0.9,
    m_minus: float = 0.1,
    lam: float = 0.5,
) -> float:
    """Margin loss of Sabour et al. for a single example.

    Parameters
    ----------
    lengths:
        Capsule lengths per class, shape ``(num_classes,)``.
    target:
        Ground-truth class index.
    m_plus / m_minus / lam:
        Margin hyper-parameters (paper defaults).
    """
    present = np.maximum(0.0, m_plus - lengths) ** 2
    absent = np.maximum(0.0, lengths - m_minus) ** 2
    mask = np.zeros_like(lengths)
    mask[target] = 1.0
    losses = mask * present + lam * (1.0 - mask) * absent
    return float(np.sum(losses))
