"""Graph → instruction-stream lowering.

:func:`compile_graph` walks a validated :class:`~repro.compiler.ir.Graph` in
topological order and emits the :mod:`~repro.compiler.isa` instruction
stream the stream executor runs.  Its scheduling decisions — pinned, with
the cycle model, by ``tests/compiler/fixtures/zoo_accounting.json`` — are:

* **conv2d** — one ``IM2COL`` + one ``LOAD_T``/``GEMM`` pair: the batch's
  patches stack into a single ``(B*M, K)`` stream per weight tile, so each
  tile loads once per batch (the paper's weight reuse across images);
* **caps_gemm** — unrolled into one ``LOAD_T``/``GEMM`` pair per input
  capsule: every capsule's private weight matrix is a distinct tile-load
  sequence streamed by all ``B`` capsule vectors (``M = B``);
* **route** — fully unrolled: per iteration one ``SOFTMAX``, a
  ``GROUPED_GEMM`` prediction sum (data from the data buffer on the first
  iteration, the feedback path afterwards; coupling coefficients from the
  routing buffer), a ``SQUASH``, and — except on the last iteration — a
  ``GROUPED_GEMM`` agreement update feeding an ``ADD_SAT`` on the logits.
  With ``optimized`` routing the first softmax is emitted unrecorded (the
  uniform coupling is a constant the control unit precomputes, costing no
  activation cycles — and softmax of an all-zero logit row *is* that
  constant, so the bits match the golden model either way).  Each routing
  step's per-image bulk buffer traffic is stamped as ``transfer_words`` on
  one instruction of its layer: the ``CONST`` logits carry the ``load``
  step (capsule vectors into the data buffer, couplings into the routing
  buffer), softmaxes their logit reads and coupling writes (only the
  coupling write when skipped), squashes their outputs and updates their
  logit writes;
* **requant folding** — whenever an op's declared output format differs
  from the GEMM accumulator format, the width reduction folds into the
  GEMM instruction (it happens in front of the activation unit and was
  never charged cycles).

Weight-tile staging is explicit: ``LOAD_T`` carries the param key plus the
reshape/transpose that forms the ``(K, N)`` tile matrix; its cycles are
part of the following GEMM's tiling plan (loads overlap the previous
tile's stream via the Weight2 double buffer), so ``LOAD_T`` itself is free.
"""

from __future__ import annotations

import math

from repro.capsnet.hwops import QuantizedFormats
from repro.compiler.ir import Graph, OpNode
from repro.compiler.isa import Instruction, Opcode, Program
from repro.errors import CompileError
from repro.fixedpoint.formats import QFormat


class _Lowering:
    """Single-use lowering state for one graph."""

    def __init__(self, graph: Graph, formats: QuantizedFormats) -> None:
        self.graph = graph
        self.formats = formats
        self.instructions: list[Instruction] = []

    def emit(self, opcode: Opcode, dest=None, srcs=(), layer=None, **attrs) -> None:
        self.instructions.append(
            Instruction(opcode=opcode, dest=dest, srcs=tuple(srcs), layer=layer, attrs=attrs)
        )

    def _fmt(self, tensor: str) -> QFormat:
        return self.graph.tensors[tensor].fmt

    def _shape(self, tensor: str) -> tuple[int, ...]:
        return self.graph.tensors[tensor].shape

    def _layer(self, op: OpNode) -> str:
        return op.attrs.get("layer", op.name)

    # ---- op lowerings --------------------------------------------------------

    def lower_conv2d(self, op: OpNode) -> None:
        (x,) = op.inputs
        (out,) = op.outputs
        weight = self.graph.params[op.attrs["weight"]]
        out_ch = weight.shape[0]
        kernel = weight.shape[2]
        k_dim = math.prod(weight.shape[1:])
        m_dim = self._shape(out)[0]
        acc_fmt = self.formats.acc(self._fmt(x), weight.fmt)
        layer = self._layer(op)
        patches = f"%{op.name}.patches"
        wreg = f"%{op.name}.w"
        self.emit(
            Opcode.IM2COL, dest=patches, srcs=(x,),
            kernel=kernel, stride=int(op.attrs.get("stride", 1)),
        )
        self.emit(
            Opcode.LOAD_T, dest=wreg,
            key=weight.name, reshape=(out_ch, k_dim), transpose=True,
        )
        self.emit(
            Opcode.GEMM, dest=out, srcs=(patches,), layer=layer,
            job=layer, wreg=wreg,
            data_fmt=self._fmt(x), weight_fmt=weight.fmt, acc_fmt=acc_fmt,
            bias=op.attrs.get("bias"),
            requant_to=None if self._fmt(out) == acc_fmt else self._fmt(out),
            m=m_dim, k=k_dim, n=out_ch,
        )

    def lower_gemm(self, op: OpNode) -> None:
        (x,) = op.inputs
        (out,) = op.outputs
        weight = self.graph.params[op.attrs["weight"]]
        transpose = bool(op.attrs.get("transpose", False))
        k_dim, n_dim = (weight.shape[1], weight.shape[0]) if transpose else weight.shape
        acc_fmt = self.formats.acc(self._fmt(x), weight.fmt)
        layer = self._layer(op)
        wreg = f"%{op.name}.w"
        self.emit(Opcode.LOAD_T, dest=wreg, key=weight.name, reshape=None, transpose=transpose)
        self.emit(
            Opcode.GEMM, dest=out, srcs=(x,), layer=layer,
            job=layer, wreg=wreg,
            data_fmt=self._fmt(x), weight_fmt=weight.fmt, acc_fmt=acc_fmt,
            bias=op.attrs.get("bias"),
            requant_to=None if self._fmt(out) == acc_fmt else self._fmt(out),
            m=self._shape(x)[0], k=k_dim, n=n_dim,
        )

    def lower_caps_gemm(self, op: OpNode) -> None:
        (x,) = op.inputs
        (out,) = op.outputs
        weight = self.graph.params[op.attrs["weight"]]
        num_in, num_out, out_dim, in_dim = weight.shape
        acc_fmt = self.formats.acc(self._fmt(x), weight.fmt)
        layer = self._layer(op)
        parts = []
        for i in range(num_in):
            sliced = f"%{op.name}.in{i}"
            wreg = f"%{op.name}.w{i}"
            raw = f"%{op.name}.acc{i}"
            part = f"%{op.name}.cap{i}"
            self.emit(Opcode.SLICE, dest=sliced, srcs=(x,), axis=0, start=i, stop=i + 1)
            self.emit(
                Opcode.LOAD_T, dest=wreg,
                key=weight.name, index=i,
                reshape=(num_out * out_dim, in_dim), transpose=True,
            )
            self.emit(
                Opcode.GEMM, dest=raw, srcs=(sliced,), layer=layer,
                job=f"fc_capsule_{i}", wreg=wreg,
                data_fmt=self._fmt(x), weight_fmt=weight.fmt, acc_fmt=acc_fmt,
                bias=None,
                requant_to=None if self._fmt(out) == acc_fmt else self._fmt(out),
                m=1, k=in_dim, n=num_out * out_dim,
            )
            self.emit(Opcode.RESHAPE, dest=part, srcs=(raw,), shape=(num_out, out_dim))
            parts.append(part)
        self.emit(Opcode.CONCAT, dest=out, srcs=tuple(parts))

    def lower_grouped_gemm(self, op: OpNode) -> None:
        data, weights = op.inputs
        (out,) = op.outputs
        groups, m_dim, k_dim = self._shape(data)
        n_dim = self._shape(weights)[2]
        acc_fmt = self.formats.acc(self._fmt(data), self._fmt(weights))
        layer = self._layer(op)
        self.emit(
            Opcode.GROUPED_GEMM, dest=out, srcs=(data, weights), layer=layer,
            job=layer,
            data_fmt=self._fmt(data), weight_fmt=self._fmt(weights), acc_fmt=acc_fmt,
            data_source=op.attrs.get("data_source", "data_buffer"),
            weight_source=op.attrs.get("weight_source", "routing_buffer"),
            requant_to=None if self._fmt(out) == acc_fmt else self._fmt(out),
            m=m_dim, k=k_dim, n=n_dim, groups=groups,
            out_shape=self._shape(out),
        )

    def lower_activation(self, op: OpNode) -> None:
        (x,) = op.inputs
        (out,) = op.outputs
        shape = self._shape(x)
        layer = self._layer(op)
        if op.kind == "relu":
            # One comparator per column: n=1, every element its own group.
            self.emit(
                Opcode.RELU, dest=out, srcs=(x,), layer=layer,
                in_fmt=self._fmt(x), out_fmt=self._fmt(out),
                n=1, groups=math.prod(shape), record=True,
            )
        elif op.kind == "squash":
            self.emit(
                Opcode.SQUASH, dest=out, srcs=(x,), layer=layer,
                in_fmt=self._fmt(x),
                n=shape[-1], groups=math.prod(shape[:-1]), record=True,
            )
        elif op.kind == "softmax":
            self.emit(
                Opcode.SOFTMAX, dest=out, srcs=(x,), layer=layer,
                n=shape[-1], groups=math.prod(shape[:-1]), record=True,
            )
        else:  # pragma: no cover - guarded by OP_KINDS
            raise CompileError(f"unknown activation kind {op.kind!r}")

    def lower_route(self, op: OpNode) -> None:
        (u_hat,) = op.inputs
        v_out, c_out = op.outputs
        num_in, num_out, out_dim = self._shape(u_hat)
        iterations = int(op.attrs.get("iterations", 1))
        optimized = bool(op.attrs.get("optimized", False))
        fmts = self.formats
        sum_acc = fmts.acc(fmts.caps_data, fmts.coupling)
        upd_acc = fmts.acc(fmts.caps_data, fmts.caps_data)
        prefix = f"%{op.name}"

        c_words = num_in * num_out
        producer = self.graph.producers().get(u_hat)
        capsules = producer.inputs[0] if producer is not None else u_hat
        b_reg = f"{prefix}.b0"
        self.emit(
            Opcode.CONST, dest=b_reg, layer="load", shape=(num_in, num_out), value=0,
            transfer_words=math.prod(self._shape(capsules)) + c_words,
        )
        # First coupling: softmax of zero logits.  With optimized routing the
        # control unit treats it as a precomputed constant (no cycles).
        c_reg = f"{prefix}.c1"
        self.emit(
            Opcode.SOFTMAX, dest=c_reg, srcs=(b_reg,), layer="softmax1",
            n=num_out, groups=num_in, record=not optimized,
            transfer_words=c_words if optimized else 2 * c_words,
        )
        for it in range(1, iterations + 1):
            if it > 1:
                c_reg = f"{prefix}.c{it}"
                self.emit(
                    Opcode.SOFTMAX, dest=c_reg, srcs=(b_reg,), layer=f"softmax{it}",
                    n=num_out, groups=num_in, record=True, transfer_words=2 * c_words,
                )
            u_byclass = f"{prefix}.u_sum{it}"
            self.emit(Opcode.TRANSPOSE, dest=u_byclass, srcs=(u_hat,), perm=(1, 2, 0))
            c_t = f"{prefix}.ct{it}"
            self.emit(Opcode.TRANSPOSE, dest=c_t, srcs=(c_reg,), perm=(1, 0))
            c_w = f"{prefix}.cw{it}"
            self.emit(Opcode.RESHAPE, dest=c_w, srcs=(c_t,), shape=(num_out, num_in, 1))
            s_reg = f"{prefix}.s{it}"
            self.emit(
                Opcode.GROUPED_GEMM, dest=s_reg, srcs=(u_byclass, c_w),
                layer=f"sum{it}", job=f"sum{it}",
                data_fmt=fmts.caps_data, weight_fmt=fmts.coupling, acc_fmt=sum_acc,
                data_source="data_buffer" if it == 1 else "feedback",
                weight_source="routing_buffer",
                requant_to=fmts.primary_preact,
                m=out_dim, k=num_in, n=1, groups=num_out,
                out_shape=(num_out, out_dim),
            )
            v_reg = v_out if it == iterations else f"{prefix}.v{it}"
            self.emit(
                Opcode.SQUASH, dest=v_reg, srcs=(s_reg,), layer=f"squash{it}",
                in_fmt=fmts.primary_preact, n=out_dim, groups=num_out, record=True,
                transfer_words=num_out * out_dim,
            )
            if it < iterations:
                u_byclass2 = f"{prefix}.u_upd{it}"
                self.emit(Opcode.TRANSPOSE, dest=u_byclass2, srcs=(u_hat,), perm=(1, 0, 2))
                v_w = f"{prefix}.vw{it}"
                self.emit(Opcode.RESHAPE, dest=v_w, srcs=(v_reg,), shape=(num_out, out_dim, 1))
                d_reg = f"{prefix}.d{it}"
                self.emit(
                    Opcode.GROUPED_GEMM, dest=d_reg, srcs=(u_byclass2, v_w),
                    layer=f"update{it}", job=f"update{it}",
                    data_fmt=fmts.caps_data, weight_fmt=fmts.caps_data, acc_fmt=upd_acc,
                    data_source="feedback", weight_source="routing_buffer",
                    requant_to=fmts.logits,
                    m=num_in, k=out_dim, n=1, groups=num_out,
                    out_shape=(num_out, num_in), transfer_words=c_words,
                )
                d_t = f"{prefix}.dt{it}"
                self.emit(Opcode.TRANSPOSE, dest=d_t, srcs=(d_reg,), perm=(1, 0))
                b_next = f"{prefix}.b{it}"
                self.emit(Opcode.ADD_SAT, dest=b_next, srcs=(b_reg, d_t), fmt=fmts.logits)
                b_reg = b_next
        # Alias the coupling used by the last iteration to its output tensor.
        self.emit(Opcode.RESHAPE, dest=c_out, srcs=(c_reg,), shape=(num_in, num_out))

    def lower(self, op: OpNode) -> None:
        kind = op.kind
        if kind == "conv2d":
            self.lower_conv2d(op)
        elif kind == "gemm":
            self.lower_gemm(op)
        elif kind == "caps_gemm":
            self.lower_caps_gemm(op)
        elif kind == "grouped_gemm":
            self.lower_grouped_gemm(op)
        elif kind in ("relu", "squash", "softmax"):
            self.lower_activation(op)
        elif kind == "route":
            self.lower_route(op)
        elif kind == "requant":
            (x,) = op.inputs
            (out,) = op.outputs
            self.emit(
                Opcode.REQUANT, dest=out, srcs=(x,),
                from_fmt=self._fmt(x), to_fmt=self._fmt(out),
            )
        elif kind == "reshape":
            (x,) = op.inputs
            (out,) = op.outputs
            self.emit(Opcode.RESHAPE, dest=out, srcs=(x,), shape=self._shape(out))
        elif kind == "transpose":
            (x,) = op.inputs
            (out,) = op.outputs
            self.emit(
                Opcode.TRANSPOSE, dest=out, srcs=(x,),
                perm=tuple(int(p) for p in op.attrs["perm"]),
            )
        elif kind == "add":
            (out,) = op.outputs
            self.emit(Opcode.ADD_SAT, dest=out, srcs=op.inputs, fmt=self._fmt(out))
        elif kind == "norm":
            (x,) = op.inputs
            (out,) = op.outputs
            self.emit(Opcode.NORM, dest=out, srcs=(x,), in_fmt=self._fmt(x))
        elif kind == "argmax":
            (x,) = op.inputs
            (out,) = op.outputs
            self.emit(Opcode.ARGMAX, dest=out, srcs=(x,))
        else:  # pragma: no cover - validate() rejects unknown kinds
            raise CompileError(f"no lowering for op kind {kind!r}")


def compile_graph(graph: Graph, formats: QuantizedFormats | None = None) -> Program:
    """Compile a validated graph to an accelerator instruction stream."""
    formats = formats if formats is not None else QuantizedFormats()
    graph.validate()
    if len(graph.inputs) != 1:
        raise CompileError(
            f"graph {graph.name!r} must have exactly one input, got {len(graph.inputs)}"
        )
    lowering = _Lowering(graph, formats)
    for op in graph.topo_sort():
        lowering.lower(op)
    for alias, tensor in graph.outputs.items():
        lowering.emit(Opcode.STORE, srcs=(tensor,), alias=alias)
    input_name = graph.inputs[0]
    input_node = graph.tensors[input_name]
    return Program(
        name=graph.name,
        input=input_name,
        input_shape=input_node.shape,
        input_fmt=input_node.fmt,
        instructions=lowering.instructions,
        outputs=dict(graph.outputs),
    )
