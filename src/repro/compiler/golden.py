"""Golden-model evaluation of IR graphs, and compiled-vs-golden checking.

:func:`evaluate_graph` interprets a validated graph per image directly from
its op semantics — integer matmuls with 25-bit saturating accumulation, the
hardware LUT activations, requantization at every annotated format edge —
**without** going through the ISA, the lowering, or the accelerator engines.
It is the compiler's independent reference: :func:`check_network` runs a
compiled program through :class:`~repro.compiler.executor.StreamExecutor`
and asserts every stored output is bit-identical to the interpretation
(and, for CapsNet-architecture entries, to
:class:`~repro.capsnet.quantized.QuantizedCapsuleNet` itself).
"""

from __future__ import annotations

import numpy as np

from repro.capsnet.hwops import (
    HardwareLuts,
    QuantizedFormats,
    hw_norm,
    hw_relu,
    hw_softmax,
    hw_squash,
    quantized_conv2d,
)
from repro.compiler.ir import Graph
from repro.errors import CompileError, ShapeError
from repro.fixedpoint.arith import requantize, saturate_raw
from repro.fixedpoint.quantize import to_raw


def evaluate_graph(
    graph: Graph,
    params: dict[str, np.ndarray],
    image: np.ndarray,
    formats: QuantizedFormats | None = None,
    luts: HardwareLuts | None = None,
) -> dict[str, np.ndarray]:
    """Interpret ``graph`` on one already-quantized raw image.

    Returns ``{output alias: raw array}``.  ``image`` must match the graph
    input's per-image shape exactly (no batch axis).
    """
    fmts = formats if formats is not None else QuantizedFormats()
    if luts is None:
        luts = HardwareLuts.build(fmts)
    if len(graph.inputs) != 1:
        raise CompileError(f"graph {graph.name!r} must have exactly one input")
    in_name = graph.inputs[0]
    image = np.asarray(image, dtype=np.int64)
    if image.shape != graph.tensors[in_name].shape:
        raise ShapeError(
            f"image shape {image.shape} != {graph.tensors[in_name].shape}"
        )
    env: dict[str, np.ndarray] = {in_name: image}

    def fmt(tensor: str):
        return graph.tensors[tensor].fmt

    for op in graph.topo_sort():
        kind = op.kind
        attrs = op.attrs
        if kind == "conv2d":
            x = env[op.inputs[0]]
            w = params[attrs["weight"]]
            bias = params[attrs["bias"]] if attrs.get("bias") else None
            acc_fmt = fmts.acc(fmt(op.inputs[0]), graph.params[attrs["weight"]].fmt)
            conv = quantized_conv2d(x, w, bias, attrs["stride"], acc_fmt)
            out = conv.reshape(conv.shape[0], -1).T  # (oh*ow, O)
            if fmt(op.outputs[0]) != acc_fmt:
                out = requantize(out, acc_fmt, fmt(op.outputs[0]))
            env[op.outputs[0]] = out
        elif kind == "gemm":
            x = env[op.inputs[0]]
            w = np.asarray(params[attrs["weight"]], dtype=np.int64)
            if attrs.get("transpose", False):
                w = w.T
            acc_fmt = fmts.acc(fmt(op.inputs[0]), graph.params[attrs["weight"]].fmt)
            acc = saturate_raw(x @ w, acc_fmt)
            if fmt(op.outputs[0]) != acc_fmt:
                acc = requantize(acc, acc_fmt, fmt(op.outputs[0]))
            env[op.outputs[0]] = acc
        elif kind == "caps_gemm":
            x = env[op.inputs[0]]
            w = params[attrs["weight"]]
            acc_fmt = fmts.acc(fmt(op.inputs[0]), graph.params[attrs["weight"]].fmt)
            acc = saturate_raw(np.einsum("ijod,id->ijo", w, x, dtype=np.int64), acc_fmt)
            env[op.outputs[0]] = requantize(acc, acc_fmt, fmt(op.outputs[0]))
        elif kind == "grouped_gemm":
            data = env[op.inputs[0]]
            weights = env[op.inputs[1]]
            acc_fmt = fmts.acc(fmt(op.inputs[0]), fmt(op.inputs[1]))
            acc = saturate_raw(
                np.einsum("gmk,gkn->gmn", data, weights, dtype=np.int64), acc_fmt
            )
            if fmt(op.outputs[0]) != acc_fmt:
                acc = requantize(acc, acc_fmt, fmt(op.outputs[0]))
            env[op.outputs[0]] = acc
        elif kind == "relu":
            env[op.outputs[0]] = requantize(
                hw_relu(env[op.inputs[0]]), fmt(op.inputs[0]), fmt(op.outputs[0])
            )
        elif kind == "requant":
            env[op.outputs[0]] = requantize(
                env[op.inputs[0]], fmt(op.inputs[0]), fmt(op.outputs[0])
            )
        elif kind == "squash":
            env[op.outputs[0]] = hw_squash(
                env[op.inputs[0]], fmt(op.inputs[0]), luts, fmts
            )
        elif kind == "softmax":
            env[op.outputs[0]] = hw_softmax(env[op.inputs[0]], luts, fmts, axis=-1)
        elif kind == "add":
            env[op.outputs[0]] = saturate_raw(
                env[op.inputs[0]] + env[op.inputs[1]], fmt(op.outputs[0])
            )
        elif kind == "reshape":
            env[op.outputs[0]] = env[op.inputs[0]].reshape(tuple(attrs["shape"]))
        elif kind == "transpose":
            env[op.outputs[0]] = env[op.inputs[0]].transpose(tuple(attrs["perm"]))
        elif kind == "route":
            v, c = _route(
                env[op.inputs[0]],
                attrs["iterations"],
                attrs.get("optimized", True),
                fmts,
                luts,
            )
            env[op.outputs[0]] = v
            env[op.outputs[1]] = c
        elif kind == "norm":
            _, sumsq = hw_norm(env[op.inputs[0]], fmt(op.inputs[0]), luts, fmts)
            env[op.outputs[0]] = sumsq
        elif kind == "argmax":
            env[op.outputs[0]] = np.argmax(env[op.inputs[0]], axis=-1)
        else:  # pragma: no cover - validate() rejects unknown kinds
            raise CompileError(f"golden interpreter: unknown op kind {kind!r}")

    return {alias: env[tensor] for alias, tensor in graph.outputs.items()}


def _route(u_hat, iterations, optimized, fmts, luts):
    """Routing-by-agreement, mirroring the quantized golden model."""
    num_in, num_out, _ = u_hat.shape
    sum_acc_fmt = fmts.acc(fmts.caps_data, fmts.coupling)
    upd_acc_fmt = fmts.acc(fmts.caps_data, fmts.caps_data)
    b_raw = np.zeros((num_in, num_out), dtype=np.int64)
    # The optimized first-iteration skip is exact: the hardware softmax of
    # an all-zero logit row IS the uniform coupling constant.
    c_raw = hw_softmax(b_raw, luts, fmts, axis=-1)
    v_raw = np.zeros((num_out, u_hat.shape[2]), dtype=np.int64)
    for iteration in range(1, iterations + 1):
        if iteration > 1:
            c_raw = hw_softmax(b_raw, luts, fmts, axis=-1)
        s_acc = saturate_raw(
            np.einsum("ij,ijo->jo", c_raw, u_hat, dtype=np.int64), sum_acc_fmt
        )
        s_raw = requantize(s_acc, sum_acc_fmt, fmts.primary_preact)
        v_raw = hw_squash(s_raw, fmts.primary_preact, luts, fmts)
        if iteration < iterations:
            agree = saturate_raw(
                np.einsum("ijo,jo->ij", u_hat, v_raw, dtype=np.int64), upd_acc_fmt
            )
            delta = requantize(agree, upd_acc_fmt, fmts.logits)
            b_raw = saturate_raw(b_raw + delta, fmts.logits)
    return v_raw, c_raw


def check_network(network, images, engine: str = "fast") -> dict:
    """Assert a compiled network's execution matches its golden interpretation.

    Runs the compiled program on ``images`` through the stream executor and
    compares **every stored output** bitwise against per-image graph
    interpretation; for CapsNet entries additionally checks predictions
    against the quantized golden model's :meth:`predict_batch`.  Raises
    :class:`~repro.errors.CompileError` on the first mismatch; returns a
    small summary dict when everything matches.
    """
    from repro.compiler.executor import StreamExecutor
    from repro.compiler.zoo import as_compiled

    net = as_compiled(network)
    executor = StreamExecutor.for_network(net, engine=engine)
    images = np.asarray(images)
    if images.ndim == 3 and net.input_shape[0] == 1:
        images = images[:, np.newaxis]
    result = executor.run_batch(images)
    raw = to_raw(images, net.program.input_fmt)
    checked = 0
    for index in range(images.shape[0]):
        golden = evaluate_graph(
            net.graph, net.params, raw[index], net.formats, net.luts
        )
        for alias, expected in golden.items():
            got = result.outputs[alias][index]
            if got.shape != expected.shape or not np.array_equal(got, expected):
                raise CompileError(
                    f"{net.name}: output {alias!r} of image {index} diverges "
                    f"from the golden interpretation"
                )
            checked += 1
    if net.qnet is not None and net.config is not None and "res_w" not in net.params:
        golden_preds = net.qnet.predict_batch(images)
        if not np.array_equal(result.predictions, golden_preds):
            raise CompileError(
                f"{net.name}: compiled predictions diverge from the "
                "quantized golden model"
            )
    return {
        "network": net.name,
        "images": int(images.shape[0]),
        "outputs_checked": checked,
        "predictions": result.predictions.tolist(),
    }
