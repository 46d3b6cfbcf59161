"""Bit-accurate batched execution of compiled instruction streams.

:class:`StreamExecutor` runs a :class:`~repro.compiler.isa.Program` over a
``(B, ...)`` image batch on one :class:`~repro.hw.accelerator.CapsAccAccelerator`.
Every register holds a batched tensor (leading ``B`` axis prepended to the
program's per-image shapes).  Numerics and accounting are separate:

* **Registers.**  Every fixed-point register is ``int32``, the paper's
  narrow datapath (8-bit data, 25-bit accumulators and biases fit with
  room to spare).  Construction raises :class:`~repro.errors.CompileError`
  unless every format, and every width reduction's widest intermediate,
  fits :data:`~repro.fixedpoint.arith.NARROW_BITS`.
* **Numerics.**  Weight tiles and biases are staged once, at construction
  (:class:`~repro.capsnet.hwops.StagedWeights`).  Each run of per-capsule
  ``SLICE → LOAD_T → GEMM → RESHAPE`` groups closed by a ``CONCAT`` (the
  ClassCaps lowering) executes as one contraction over the capsule axis,
  and an ``IM2COL`` read only by its GEMM is gathered by that GEMM.  The
  ``fast`` engine runs GEMMs through
  :func:`~repro.capsnet.hwops.saturating_matmul`, one BLAS call whenever a
  row-sum bound proves no accumulator clip can trigger, and stages work
  once:

  - the static bound ``K * max|code|`` of the data format proves most
    GEMMs exact without a pass over the data;
  - a gathered ``IM2COL`` reads its windows channels-last, the layout a
    ``(positions, channels)`` accumulator already has, against weight rows
    permuted at staging (:func:`~repro.capsnet.hwops.conv_matmul`); a conv
    whose per-row depth ``kernel * C`` is large next to ``N`` (MNIST
    PrimaryCaps) runs one GEMM per kernel row, accumulating in float,
    and builds no patch matrix;
  - each GEMM's bias, saturation and folded ``requant_to``, and the
    ``RELU`` or ``REQUANT`` right after it when that is the result's only
    reader (Conv1's ReLU, PrimaryCaps' reduction), form its
    :class:`~repro.capsnet.hwops.Epilogue`, run in place on the BLAS float
    result whenever the bound proves every intermediate an exact float
    integer, then converted to ``int32`` once;
  - routing is class-major: a ``GROUPED_GEMM`` reading its register
    through ``TRANSPOSE`` views (``u_hat`` in the routing sums and
    updates) reads a contiguous float panel per group, ``(B, J, I, D)``
    for ``u_hat``, staged once per batch when the float dtype holds its
    data format's codes exactly, and a sum runs as the transposed
    product ``c.T @ u``; a ClassCaps run with BLAS-sized work per image
    (MNIST's) computes straight into that panel, and then the routing
    logits and coupling stay class-major too
    (:meth:`StreamExecutor._stage_layouts` derives all of it from the
    program's shapes and views);
  - instructions fed only by ``CONST`` (``%routing.b0``, the first
    routing softmax over its all-zero logits and that coupling's views)
    are evaluated once, per image, at construction, and read as
    read-only registers broadcast over each batch size.

  A GEMM a corruption lands on runs its epilogue on the integer
  accumulator, after the flips.  The ``stepped`` engine, the reference,
  drives the systolic array clock edge by clock edge, one array job at a
  time, in program row order, and executes every instruction on its own.
  Activations run through a shared
  :class:`~repro.hw.activation.ActivationUnit` built from the network's own
  LUT ROMs.
* **Accounting.**  Cycles and buffer traffic depend on shapes only, so
  ``BatchResult.layers`` and the accelerator's buffer counters come from
  the closed-form pricing of :mod:`repro.compiler.cost`, memoized per
  batch size; every batch of a size shares the same read-only layer
  reports (their ``stats.accesses`` are frozen).

Calls share no mutable state apart from those buffer counters (statistics
the serving path never reads) and the memo of read-only constant
registers per batch size, so one executor serves concurrent threads.
``run_batch(..., timings=dict)`` accumulates each executed instruction's,
fused GEMM's or capsule run's wall time under its compiled layer.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from repro.capsnet.hwops import (
    SERIAL_GEMM_MACS,
    Epilogue,
    StagedWeights,
    channels_last_order,
    code_max,
    conv_matmul,
    exact_integers,
    saturating_matmul,
)
from repro.capsnet.ops import im2col
from repro.compiler.cost import program_layers
from repro.compiler.isa import Instruction, Opcode, Program
from repro.errors import CompileError, MappingError, ShapeError
from repro.fixedpoint.arith import NARROW_BITS, requantize, requantize_bits, saturate_raw
from repro.fixedpoint.formats import QFormat
from repro.fixedpoint.quantize import to_raw
from repro.hw.accelerator import CapsAccAccelerator, plan_tiling
from repro.hw.activation import ActivationUnit
from repro.hw.report import BatchResult
from repro.hw.stats import FrozenCounts

#: ``BatchResult`` field <- program output alias (set when the alias exists).
_RESULT_FIELDS = (
    "conv1_raw",
    "primary_raw",
    "u_hat_raw",
    "class_caps_raw",
    "coupling_raw",
    "length_sumsq_raw",
)

ENGINES = ("fast", "stepped")
#: One input capsule's instructions in a ClassCaps run.
_CAPSULE_OPS = (Opcode.SLICE, Opcode.LOAD_T, Opcode.GEMM, Opcode.RESHAPE)
#: Register dtype of every fixed-point value.
_REGISTER = np.int32
#: Opcode -> (input, output) format attrs of the width reduction it folds in.
_REDUCTIONS = {
    Opcode.GEMM: ("acc_fmt", "requant_to"),
    Opcode.GROUPED_GEMM: ("acc_fmt", "requant_to"),
    Opcode.RELU: ("in_fmt", "out_fmt"),
    Opcode.REQUANT: ("from_fmt", "to_fmt"),
}
#: Corruption targets that land on an array instruction's operands.
_ARRAY_TARGETS = ("weight", "accumulator")
#: Ops that only re-view a register; routing operands are traced through them.
_VIEWS = (Opcode.TRANSPOSE, Opcode.RESHAPE)
#: Ops evaluated once, per image, when every source is a constant.
_FOLDABLE = frozenset(
    (
        Opcode.CONST, Opcode.SOFTMAX, Opcode.SQUASH, Opcode.NORM, Opcode.RELU,
        Opcode.REQUANT, Opcode.TRANSPOSE, Opcode.RESHAPE, Opcode.SLICE,
        Opcode.CONCAT, Opcode.ADD_SAT,
    )
)


def _epilogue(attrs: dict, bias: np.ndarray | None, reader: Instruction | None) -> Epilogue:
    """A GEMM's bias and folded width reduction, then its fused reader's."""
    steps = []
    if attrs.get("requant_to") is not None:
        steps.append((attrs["acc_fmt"], attrs["requant_to"], False))
    if reader is not None and reader.opcode is Opcode.RELU:
        steps.append((reader.attrs["in_fmt"], reader.attrs["out_fmt"], True))
    elif reader is not None:
        steps.append((reader.attrs["from_fmt"], reader.attrs["to_fmt"], False))
    return Epilogue(attrs["acc_fmt"], bias, steps)


class _Fault(NamedTuple):
    """One call's corruption: the spec, whether checks are armed, and
    the array instruction it lands on."""

    spec: object
    verify: bool
    victim: int


class _Panel(NamedTuple):
    """How a routing GEMM reads its data operand on the fast engine.

    ``root.transpose(layout)`` is the contiguous float copy staged once
    per batch; the operand is that panel, or its transposed view (the
    product then issued transposed) when ``transposed``.
    """

    root: str
    layout: tuple[int, ...]
    transposed: bool


class _Run(NamedTuple):
    """A capsule run: its closing ``CONCAT`` and stacked tiles.

    A run whose register routing reads as panels is class-major: its
    product lands straight in the panel ``layout`` and ``tiles`` hold the
    leading ``split`` axes of each capsule's output shape in front, as
    ``(*split axes, I, K, last axis)``.  ``into`` views the panel in the
    product's axis order, ``back`` takes the product to ``(B, I, ...)``.
    """

    end: int
    tiles: StagedWeights
    split: int = 0
    layout: tuple[int, ...] | None = None
    into: tuple[int, ...] | None = None
    back: tuple[int, ...] = (1, 0, 2)


class _Order(NamedTuple):
    """An ``ADD_SAT`` or ``SOFTMAX`` run on its sources' memory order:
    ``perm`` views them contiguously, the softmax runs along ``axis``
    and ``inverse`` views the result in program axis order."""

    perm: tuple[int, ...]
    axis: int
    inverse: tuple[int, ...]


def _capsule_major(a: np.ndarray, split: int) -> np.ndarray:
    """``(*split axes, X, Y, last)`` -> ``(X, Y, N)``: a class-major run's
    product or tiles in program (capsule-major) order."""
    if not split:
        return a
    axes = (split, split + 1) + tuple(range(split)) + (a.ndim - 1,)
    return a.transpose(axes).reshape(a.shape[split : split + 2] + (-1,))


class _Gather(NamedTuple):
    """The ``IM2COL`` (at ``pos``) a GEMM gathers itself.

    ``order``, on the fast engine, is the program row of each staged
    weight row: the tile is held channels-last, matching the windows.
    """

    pos: int
    src: str
    kernel: int
    stride: int
    order: np.ndarray | None = None


class StreamExecutor:
    """Executes compiled programs batch by batch with cycle accounting."""

    def __init__(
        self,
        program: Program,
        params: dict[str, np.ndarray],
        formats,
        luts=None,
        accelerator: CapsAccAccelerator | None = None,
        engine: str = "fast",
    ) -> None:
        if engine not in ENGINES:
            raise MappingError(f"unknown engine {engine!r}")
        self.program = program
        self.params = params
        if accelerator is None:
            accelerator = CapsAccAccelerator(formats=formats)
        self.accelerator = accelerator
        # Share the network's ROMs so both paths are the same bits.
        self.activation = ActivationUnit(formats, luts)
        self.engine = engine
        self._check_width()
        self._gemm_positions = [
            index
            for index, instr in enumerate(program.instructions)
            if instr.opcode in (Opcode.GEMM, Opcode.GROUPED_GEMM)
        ]
        self._accounts: dict[int, tuple] = {}
        #: GEMM position -> staged weight tile (outside capsule runs).
        self._tiles: dict[int, StagedWeights] = {}
        #: GEMM position or capsule run start -> what its accumulator goes
        #: through: bias, folded reduction and, on the fast engine, the
        #: RELU or REQUANT right after it when that is its only reader.
        self._epilogues: dict[int, Epilogue] = {}
        #: GEMM position -> the register its fused reader writes.
        self._fused: dict[int, str] = {}
        #: Capsule run start -> its closing CONCAT, tiles and layout.
        self._runs: dict[int, _Run] = {}
        #: GEMM position -> the IM2COL it gathers itself.
        self._gathers: dict[int, _Gather] = {}
        #: Fast engine: routing GEMM position -> its data operand's panel.
        self._panels: dict[int, _Panel] = {}
        #: Fast engine: ADD_SAT/SOFTMAX position -> the order it runs in.
        self._orders: dict[int, _Order] = {}
        #: Registers computed from constants alone, per image (read-only).
        self._folded: dict[str, np.ndarray] = {}
        #: Batch size -> the folded registers broadcast over that batch.
        self._constants: dict[int, dict[str, np.ndarray]] = {}
        #: Positions the run loop passes over: LOAD_Ts, gathered IM2COLs,
        #: fused readers and folded instructions.
        self._skip: frozenset[int] = frozenset()
        #: Position -> the ``timings`` key of what executes there.
        self._layers: list[str] = []
        self._stage()

    @classmethod
    def for_network(
        cls,
        network,
        accelerator: CapsAccAccelerator | None = None,
        engine: str = "fast",
    ) -> "StreamExecutor":
        """An executor for anything :func:`~repro.compiler.zoo.as_compiled`
        accepts (a zoo name, a compiled or quantized network, a config)."""
        from repro.compiler.zoo import as_compiled

        net = as_compiled(network)
        return cls(
            net.program,
            net.params,
            net.formats,
            luts=net.luts,
            accelerator=accelerator,
            engine=engine,
        )

    # ---- staging ---------------------------------------------------------------

    def _check_width(self) -> None:
        """Raise :class:`CompileError` unless every register fits ``int32``.

        Covers every format an instruction or the activation unit computes
        in and the widest intermediate of every width reduction.
        """
        fmts = self.activation.formats
        checks = [("input", self.program.input_fmt, None)]
        checks += [(field.name, getattr(fmts, field.name), None) for field in fields(fmts)]
        for instr in self.program.instructions:
            attrs, where = instr.attrs, f"{instr.opcode.name} {instr.dest}"
            checks += [(where, fmt, None) for fmt in attrs.values()]
            src, dst = _REDUCTIONS.get(instr.opcode, ("", ""))
            checks.append((where, attrs.get(src), attrs.get(dst)))
            if instr.opcode in (Opcode.SQUASH, Opcode.NORM):
                checks.append((where, attrs["in_fmt"], fmts.square_in))
                checks.append((where, attrs["in_fmt"], fmts.squash_in))
        for where, src, dst in checks:
            if isinstance(src, QFormat) and requantize_bits(src, dst or src) > NARROW_BITS:
                shown = src.describe() + (f" -> {dst.describe()}" if dst else "")
                raise CompileError(
                    f"{where}: {shown} needs more than the {NARROW_BITS}-bit"
                    " int32 registers hold"
                )

    def _stage(self) -> None:
        """Stage weight tiles and find the fused runs, once per program."""
        instructions = self.program.instructions
        uses = Counter(src for instr in instructions for src in instr.srcs)
        uses.update(instr.attrs["wreg"] for instr in instructions if "wreg" in instr.attrs)
        producers = {instr.dest: instr for instr in instructions if instr.dest}
        codes: dict[str, np.ndarray] = {}

        def param(key: str) -> np.ndarray:
            if key not in codes:
                codes[key] = self._param(key)
            return codes[key]

        loads: dict[str, np.ndarray] = {}
        weights: dict[int, np.ndarray] = {}
        skip = set()
        for pos, instr in enumerate(instructions):
            if instr.opcode is Opcode.LOAD_T:
                loads[instr.dest] = self._load(instr, param(instr.attrs["key"]))
                skip.add(pos)
            elif instr.opcode in (Opcode.GEMM, Opcode.GROUPED_GEMM):
                attrs = instr.attrs
                if instr.opcode is Opcode.GEMM:
                    weights[pos] = loads[attrs["wreg"]]
                bias = param(attrs["bias"]) if attrs.get("bias") is not None else None
                reader = instructions[pos + 1] if pos + 1 < len(instructions) else None
                if not (
                    self.engine == "fast"
                    and reader is not None
                    and reader.opcode in (Opcode.RELU, Opcode.REQUANT)
                    and reader.srcs == (instr.dest,)
                    and uses[instr.dest] == 1
                ):
                    reader = None
                self._epilogues[pos] = _epilogue(attrs, bias, reader)
                if reader is not None:
                    self._fused[pos] = reader.dest
                    skip.add(pos + 1)
            elif instr.opcode is Opcode.IM2COL and uses[instr.dest] == 1:
                reader = pos + 1
                while reader < len(instructions) and instructions[reader].opcode is Opcode.LOAD_T:
                    reader += 1
                if reader < len(instructions) and instructions[reader].srcs == (instr.dest,):
                    if instructions[reader].opcode is Opcode.GEMM:
                        self._gathers[reader] = _Gather(
                            pos, instr.srcs[0], instr.attrs["kernel"], instr.attrs["stride"]
                        )
                        skip.add(pos)
            elif instr.opcode is Opcode.CONCAT:
                start = self._capsule_run_start(pos, uses)
                if start is not None:
                    stacked = np.stack([weights.pop(p) for p in range(start + 2, pos, 4)])
                    acc_fmt = instructions[start + 2].attrs["acc_fmt"]
                    self._runs[start] = _Run(pos, StagedWeights(stacked, acc_fmt))
                    self._epilogues[start] = _epilogue(instructions[start + 2].attrs, None, None)
        for pos, tile in weights.items():
            gather = self._gathers.get(pos)
            if gather is not None and self.engine == "fast":
                # Row (c, kh, kw) of the program's tile meets window
                # element (kh, kw, c) of a channels-last gather.
                order = channels_last_order(len(tile) // gather.kernel**2, gather.kernel)
                self._gathers[pos] = gather._replace(order=order)
                tile = tile[order]
            self._tiles[pos] = StagedWeights(tile, instructions[pos].attrs["acc_fmt"])
        if self.engine == "fast":
            self._fold(skip)
            self._stage_layouts(producers, skip)
        self._skip = frozenset(skip)
        self._layers = [instr.layer or instr.opcode.name for instr in instructions]
        for start in self._runs:
            self._layers[start] = instructions[start + 2].layer or Opcode.GEMM.name

    def _stage_layouts(self, producers: dict, skip: set) -> None:
        """Lay routing out class-major, from the shapes and views alone.

        A ``GROUPED_GEMM`` whose data operand is its root register seen
        through ``TRANSPOSE`` views reads a contiguous float panel: the
        group axes first, then the two matrix axes in the root's own
        order, so each group's ``(M, K)`` or ``(K, M)`` matrix is one
        block and GEMMs that differ only in which axis they contract
        (``u_hat``'s sum and update) share it; the product is issued
        transposed when the contraction axis comes first.

        A capsule run whose register is such a root computes straight
        into that layout when its capsules' last output axis stays
        innermost, which keeps the axes BLAS writes contiguous, and each
        image gives it BLAS-sized work
        (:data:`~repro.capsnet.hwops.SERIAL_GEMM_MACS` multiply-accumulates
        or more: MNIST's run, not the tiny network's): splitting the
        capsules' output axes multiplies its BLAS calls, a fixed cost only
        a large run's saved copy repays.  Otherwise the first routing GEMM
        stages the panel with one copy.  With a class-major run, ``ADD_SAT``
        and ``SOFTMAX`` run in the memory order their sources arrive in, so
        the routing logits and coupling (read through ``TRANSPOSE`` views
        of the update result) stay class-major too, and the next sum's
        coupling tile is contiguous; on a network too small for that, the
        transposes would cost more than the strides.
        """
        instructions = self.program.instructions
        roots: dict[str, tuple[int, ...]] = {}
        for pos, instr in enumerate(instructions):
            if instr.opcode is not Opcode.GROUPED_GEMM:
                continue
            root, views = instr.srcs[0], []
            while root in producers and producers[root].opcode in _VIEWS:
                views.append(producers[root])
                root = producers[root].srcs[0]
            if not views or any(view.opcode is not Opcode.TRANSPOSE for view in views):
                continue
            axes = np.arange(len(views[0].attrs["perm"]) + 1)
            for view in reversed(views):
                axes = axes[[0] + [axis + 1 for axis in view.attrs["perm"]]]
            layout = tuple(int(axis) for axis in axes[:-2]) + tuple(sorted(axes[-2:].tolist()))
            self._panels[pos] = _Panel(root, layout, bool(axes[-2] > axes[-1]))
            roots.setdefault(root, layout)
        #: Register -> the axis order that views it contiguously.
        layouts: dict[str, tuple[int, ...]] = {}
        for start, run in self._runs.items():
            layout = roots.get(instructions[run.end].dest)
            big = run.tiles.raw.size >= SERIAL_GEMM_MACS  # MACs per image
            if layout is None or layout[-1] != len(layout) - 1 or not big:
                continue
            layouts[instructions[run.end].dest] = layout
            shape = tuple(instructions[start + 3].attrs["shape"])
            split = len(shape) - 1
            count, k = run.tiles.raw.shape[:2]
            lead = tuple(range(2, 2 + split))
            tiles = run.tiles.raw.reshape((count, k) + shape).transpose(lead + (0, 1, 2 + split))
            order = lead + (1, 0, 2 + split)
            self._runs[start] = run._replace(
                tiles=StagedWeights(
                    np.ascontiguousarray(tiles), instructions[start + 2].attrs["acc_fmt"]
                ),
                split=split,
                layout=layout,
                into=tuple(int(axis) for axis in np.argsort(layout)[list(order)]),
                back=tuple(int(axis) for axis in np.argsort(order)),
            )
        for pos, instr in enumerate(instructions):
            if pos in skip or not layouts:
                continue
            if instr.opcode is Opcode.TRANSPOSE:
                perm = np.argsort((0,) + tuple(axis + 1 for axis in instr.attrs["perm"]))
                src = layouts.get(instr.srcs[0], range(len(perm)))
                layout = tuple(int(perm[axis]) for axis in src)
                if layout != tuple(range(len(perm))):
                    layouts[instr.dest] = layout
            elif instr.opcode in (Opcode.ADD_SAT, Opcode.SOFTMAX):
                layout = next((layouts[src] for src in instr.srcs if src in layouts), None)
                if layout is not None:
                    layouts[instr.dest] = layout
                    inverse = tuple(int(axis) for axis in np.argsort(layout))
                    self._orders[pos] = _Order(layout, layout.index(len(layout) - 1), inverse)

    def _fold(self, skip: set) -> None:
        """Evaluate, once and per image, every instruction fed by constants.

        ``%routing.b0`` is all zeros, so the first routing softmax (and
        its views) is the same uniform coupling for every input: the array
        skips it (§V-C), and so does the run loop, which reads the
        registers broadcast over each batch size instead.
        """
        instructions = self.program.instructions
        env: dict[str, np.ndarray] = {}
        for pos, instr in enumerate(instructions):
            if instr.opcode in _FOLDABLE and all(src in env for src in instr.srcs):
                env[instr.dest] = self._execute(instr, env, 1)
                skip.add(pos)
        for value in env.values():
            value.flags.writeable = False
        self._folded = env

    def _param(self, key: str) -> np.ndarray:
        """Param ``key`` as ``int32`` codes."""
        if key not in self.params:
            raise CompileError(f"program references unknown param {key!r}")
        codes = np.asarray(self.params[key], dtype=np.int64)
        if codes.size and np.abs(codes).max() >= 2**NARROW_BITS:
            raise CompileError(f"param {key!r} does not fit int32 registers")
        return codes.astype(_REGISTER)

    @staticmethod
    def _load(instr: Instruction, tile: np.ndarray) -> np.ndarray:
        """The ``(K, N)`` weight matrix a ``LOAD_T`` stages from its param."""
        index = instr.attrs.get("index")
        if index is not None:
            tile = tile[index]
        reshape = instr.attrs.get("reshape")
        if reshape is not None:
            tile = tile.reshape(tuple(reshape))
        if instr.attrs.get("transpose", False):
            tile = tile.T
        return tile

    def _capsule_run_start(self, end: int, uses: Counter) -> int | None:
        """Where the capsule run the ``CONCAT`` at ``end`` closes starts.

        A run is one ``SLICE(i) → LOAD_T(index=i) → GEMM → RESHAPE`` group
        per input capsule ``i = 0, 1, ...``, concatenated in order, over
        one source and one weight param with identical formats and shapes,
        whose registers nothing else reads.  ``None`` if it is not one.
        """
        instructions = self.program.instructions
        concat = instructions[end]
        start = end - 4 * len(concat.srcs)
        if not concat.srcs or start < 0:
            return None
        head = instructions[start : start + 4]

        def same(instr, first, keys):
            return all(instr.attrs.get(key) == first.attrs.get(key) for key in keys)

        for i, part in enumerate(concat.srcs):
            quad = instructions[start + 4 * i : start + 4 * i + 4]
            sliced, load, gemm, reshape = quad
            if not (
                tuple(instr.opcode for instr in quad) == _CAPSULE_OPS
                and sliced.srcs == head[0].srcs
                and (sliced.attrs["axis"], sliced.attrs["start"], sliced.attrs["stop"])
                == (0, i, i + 1)
                and load.attrs.get("index") == i
                and same(load, head[1], ("key", "reshape", "transpose"))
                and gemm.srcs == (sliced.dest,)
                and gemm.attrs["wreg"] == load.dest
                and gemm.attrs.get("bias") is None
                and gemm.attrs["m"] == 1
                and same(gemm, head[2], ("data_fmt", "weight_fmt", "acc_fmt", "requant_to"))
                and reshape.srcs == (gemm.dest,)
                and reshape.dest == part
                and same(reshape, head[3], ("shape",))
                and all(uses[instr.dest] == 1 for instr in quad)
            ):
                return None
        return start

    # ---- accounting ------------------------------------------------------------

    def _accounting(self, batch: int) -> tuple:
        """``(layers, accesses)`` of a batch size (memoized).

        Every batch of the size shares these layer reports, so each
        report's ``stats.accesses`` is frozen read-only.
        """
        account = self._accounts.get(batch)
        if account is None:
            config = self.accelerator.config
            layers = program_layers(config, self.program, batch)
            accesses: Counter = Counter()
            for report in layers.values():
                accesses.update(report.stats.accesses)
                report.stats.accesses = FrozenCounts(report.stats.accesses)
            account = (layers, accesses)
            self._accounts[batch] = account
        return account

    # ---- numerics --------------------------------------------------------------

    def _product(
        self,
        data: np.ndarray,
        tile: StagedWeights,
        attrs: dict,
        epilogue: Epilogue | None,
        out: np.ndarray | None = None,
        transposed: bool = False,
    ) -> np.ndarray:
        """``(..., M, K) @ (..., K, N)`` on the selected engine, through
        ``epilogue`` when one is given.

        The fast engine passes the static row-sum bound of the data
        format, and ``out`` and ``transposed`` (where the product lands,
        how it is issued) to :func:`~repro.capsnet.hwops.saturating_matmul`.
        The stepped engine runs one array job per leading index of a
        stacked tile, and one job over every leading row of a shared 2-D
        tile, as the accelerator would issue them.
        """
        acc_fmt = attrs["acc_fmt"]
        config = self.accelerator.config
        if self.engine == "fast":
            bound = data.shape[-1] * code_max(attrs["data_fmt"])
            return saturating_matmul(
                data, tile, acc_fmt, config.rows, bound, epilogue, out, transposed
            )
        data = np.asarray(data, dtype=np.int64)
        k, n = tile.raw.shape[-2:]
        if tile.raw.ndim == 2:
            pairs = [(data.reshape(-1, k), tile.raw)]
        else:
            pairs = zip(data.reshape((-1,) + data.shape[-2:]), tile.raw.reshape(-1, k, n))
        accs = [
            self.accelerator.stepped_gemm(
                d, w, attrs["data_fmt"], attrs["weight_fmt"], acc_fmt,
                plan_tiling(config, d.shape[0], k, n),
            )
            for d, w in pairs
        ]
        acc = np.stack(accs).reshape(data.shape[:-1] + (n,)).astype(tile.raw.dtype)
        return acc if epilogue is None else epilogue.finish(acc)

    def _gathered(
        self,
        gather: _Gather,
        x: np.ndarray,
        tile: StagedWeights,
        attrs: dict,
        epilogue: Epilogue | None,
    ) -> np.ndarray:
        """The GEMM of ``tile`` over the convolution windows of ``x``.

        On the fast engine the tile is held channels-last and
        :func:`~repro.capsnet.hwops.conv_matmul` reads the windows without
        a program-order patch matrix; the stepped engine runs the program's
        patches.
        """
        if gather.order is None:
            return self._product(im2col(x, gather.kernel, gather.stride), tile, attrs, epilogue)
        bound = len(tile.raw) * code_max(attrs["data_fmt"])
        rows = self.accelerator.config.rows
        return conv_matmul(
            x, tile, gather.kernel, gather.stride, attrs["acc_fmt"], rows, bound, epilogue
        )

    def _operand(
        self, pos: int, env: dict, panels: dict, tile: StagedWeights
    ) -> tuple[np.ndarray, bool]:
        """The data operand of the GEMM at ``pos``, and whether its
        product is issued transposed.

        A routing GEMM on the fast engine reads its panel
        (:meth:`_stage_layouts`) in ``tile``'s float dtype: one copy per
        root, layout and batch, which the class-major capsule run writing
        the root has already left in ``panels``.  Any other operand, and
        one whose data format has codes that dtype would round (so the
        chunk loop reads the exact codes), is its register.
        """
        instr = self.program.instructions[pos]
        plan = self._panels.get(pos)
        dtype = tile.float.dtype
        if plan is None or code_max(instr.attrs["data_fmt"]) > exact_integers(dtype):
            return env[instr.srcs[0]], False
        key = (plan.root, plan.layout, dtype)
        panel = panels.get(key)
        if panel is None:
            panel = env[plan.root].transpose(plan.layout).astype(dtype, order="C")
            panels[key] = panel
        return (panel.swapaxes(-1, -2), True) if plan.transposed else (panel, False)

    @staticmethod
    def _hits(fault: _Fault | None, pos: int, target: str) -> bool:
        """Whether ``fault`` lands on ``pos``'s ``target``."""
        return fault is not None and fault.victim == pos and fault.spec.target == target

    @staticmethod
    def _corrupt(fault: _Fault, tensor: np.ndarray, axis: int, kind: str) -> np.ndarray:
        """``tensor`` with the seeded flips of ``fault``, in its own dtype.

        ``axis`` picks the ABFT reduction an armed check runs (``-2``
        column sums for weight tiles, ``-1`` row sums for accumulators),
        exact in int64.  Verification is numeric only here, at the
        corrupted instruction — every other instruction's tensors are
        bit-identical to the clean run by construction, so their checks
        cannot fire; the *cost* of checking them everywhere is what the
        cost models price in.  The flips stay in the low 16 bits, so the
        corrupted codes still fit the tensor's dtype.
        """
        from repro.serve.integrity import DetectedCorruptionError, apply_corruption

        clean = np.asarray(tensor, dtype=np.int64)
        corrupted = apply_corruption(clean, fault.spec)
        if fault.verify and not np.array_equal(corrupted.sum(axis=axis), clean.sum(axis=axis)):
            raise DetectedCorruptionError(
                f"ABFT checksum mismatch on {kind}"
                f" (target {fault.spec.target}, {fault.spec.bits} bit flips)"
            )
        return corrupted.astype(tensor.dtype)

    def _gemm(self, pos: int, env: dict, panels: dict, fault: _Fault | None) -> np.ndarray:
        """Execute the ``GEMM`` or ``GROUPED_GEMM`` at ``pos``, with its
        epilogue (and fused reader, whose register it returns).

        A ``GROUPED_GEMM`` is ``(B, G, M, K) @ (B, G, K, N)``: the flat
        element order of its weights and accumulator is that of the
        ``(B*G, ...)`` job, so seeded flips land identically.  A weight
        flip lands on the program's row order, whatever order is staged.
        A corrupted GEMM runs its epilogue on the integer accumulator,
        after the flips.
        """
        instr = self.program.instructions[pos]
        attrs = instr.attrs
        acc_fmt = attrs["acc_fmt"]
        gather = self._gathers.get(pos)
        epilogue = self._epilogues[pos]
        if instr.opcode is Opcode.GROUPED_GEMM:
            tile = StagedWeights(env[instr.srcs[1]], acc_fmt)
            kind = f"weight tiles of {instr.layer}"
        else:
            tile = self._tiles[pos]
            kind = f"weight tile {attrs['wreg']}"
        if self._hits(fault, pos, "weight"):
            order = None if gather is None else gather.order
            clean = tile.raw if order is None else tile.raw[np.argsort(order)]
            corrupted = self._corrupt(fault, clean, -2, kind)
            tile = StagedWeights(corrupted if order is None else corrupted[order], acc_fmt)
        hit = fault is not None and fault.victim == pos and fault.spec.target in _ARRAY_TARGETS
        finish = None if hit else epilogue
        if gather is not None:
            acc = self._gathered(gather, env[gather.src], tile, attrs, finish)
        else:
            data, transposed = self._operand(pos, env, panels, tile)
            acc = self._product(data, tile, attrs, finish, transposed=transposed)
        if hit:
            if self._hits(fault, pos, "accumulator"):
                acc = self._corrupt(fault, acc, -1, f"accumulator of {instr.layer}")
            acc = epilogue.finish(acc)
        if instr.opcode is Opcode.GROUPED_GEMM:
            acc = acc.reshape((len(acc),) + tuple(attrs["out_shape"]))
        return acc

    def _capsule_run(
        self, start: int, env: dict, panels: dict, fault: _Fault | None
    ) -> np.ndarray:
        """One ``(I, B, K) @ (I, K, N)`` contraction for a whole capsule run.

        Capsule ``i``'s GEMM streams the ``B`` vectors ``x[:, i]`` through
        its private tile.  A class-major run (:class:`_Run`) computes
        into a fresh float panel, which its epilogue leaves holding the
        codes; the panel goes to ``panels`` for routing and the ``int32``
        register shares its layout.  Corruption aimed at a capsule flips
        the same element of its tile or of its ``(B, 1, N)`` accumulator
        as the GEMM alone would, and raises the same detection; the run's
        reduction then runs on the integer accumulator.
        """
        instructions = self.program.instructions
        run = self._runs[start]
        attrs = instructions[start + 2].attrs
        epilogue = self._epilogues[start]
        count = run.tiles.raw.shape[run.split]
        data = env[instructions[start].srcs[0]][:, :count].transpose(1, 0, 2)
        shape = (data.shape[1], count) + tuple(instructions[start + 3].attrs["shape"])
        index, offset = divmod(fault.victim - start - 2, 4) if fault else (-1, 0)
        hit = offset == 0 and 0 <= index < count and fault.spec.target in _ARRAY_TARGETS
        panel = out = None
        if run.layout is not None and not hit:
            panel = np.empty([shape[axis] for axis in run.layout], run.tiles.float.dtype)
            out = panel.transpose(run.into)
        lead = data.reshape((1,) * run.split + data.shape)
        acc = self._product(lead, run.tiles, attrs, None if hit else epilogue, out)
        if panel is not None:
            panels[(instructions[run.end].dest, run.layout, panel.dtype)] = panel
        if not hit:
            return acc.transpose(run.back).reshape(shape)
        acc = _capsule_major(acc, run.split)
        gemm = instructions[fault.victim]
        if self._hits(fault, fault.victim, "weight"):
            kind = f"weight tile {gemm.attrs['wreg']}"
            tile = _capsule_major(np.take(run.tiles.raw, [index], axis=run.split), run.split)
            weights = self._corrupt(fault, tile[0], -2, kind)
            staged = StagedWeights(weights, attrs["acc_fmt"])
            acc[index] = self._product(data[index], staged, attrs, None)
        if self._hits(fault, fault.victim, "accumulator"):
            acc[index] = self._corrupt(
                fault, acc[index][:, np.newaxis], -1, f"accumulator of {gemm.layer}"
            )[:, 0]
        return epilogue.finish(acc).transpose(1, 0, 2).reshape(shape)

    # ---- execution -------------------------------------------------------------

    def _victim_instruction(self, corruption) -> int:
        """Index of the array instruction the corruption lands on.

        Seeded from the spec so the choice is bit-reproducible from the
        fault plan; ``output``-target corruption lands on the final
        ARGMAX instead and returns ``-1`` here.
        """
        if corruption is None or corruption.target == "output":
            return -1
        positions = self._gemm_positions
        if not positions:
            return -1
        return positions[random.Random(corruption.seed).randrange(len(positions))]

    def _constant_registers(self, batch: int) -> dict[str, np.ndarray]:
        """The folded registers as read-only ``(batch, ...)`` broadcasts."""
        registers = self._constants.get(batch)
        if registers is None:
            registers = {
                name: np.broadcast_to(value, (batch,) + value.shape[1:])
                for name, value in self._folded.items()
            }
            self._constants[batch] = registers
        return registers

    def _execute(
        self, instr: Instruction, env: dict, batch: int, axis: int = -1
    ) -> np.ndarray:
        """The register an instruction outside the array writes (a
        ``SOFTMAX`` along ``axis``)."""
        op, attrs = instr.opcode, instr.attrs
        src = env.get(instr.srcs[0]) if instr.srcs else None
        if op is Opcode.IM2COL:
            return im2col(src, attrs["kernel"], attrs["stride"])
        if op is Opcode.RELU:
            return self.activation.relu(src, attrs["in_fmt"], attrs["out_fmt"])
        if op is Opcode.SQUASH:
            return self.activation.squash(src, attrs["in_fmt"])
        if op is Opcode.SOFTMAX:
            return self.activation.softmax(src, axis=axis)
        if op is Opcode.NORM:
            # Final length readout: the cycle model never charges it.
            return self.activation.norm(src, attrs["in_fmt"])[1]
        if op is Opcode.REQUANT:
            return requantize(src, attrs["from_fmt"], attrs["to_fmt"])
        if op is Opcode.TRANSPOSE:
            return src.transpose((0,) + tuple(p + 1 for p in attrs["perm"]))
        if op is Opcode.RESHAPE:
            return src.reshape((src.shape[0],) + tuple(attrs["shape"]))
        if op is Opcode.SLICE:
            axis = attrs["axis"] + 1
            return src[(slice(None),) * axis + (slice(attrs["start"], attrs["stop"]),)]
        if op is Opcode.CONCAT:
            return np.stack([env[s] for s in instr.srcs], axis=1)
        if op is Opcode.ADD_SAT:
            a, b = instr.srcs
            return saturate_raw(env[a] + env[b], attrs["fmt"])
        if op is Opcode.CONST:
            return np.full((batch,) + tuple(attrs["shape"]), attrs["value"], dtype=_REGISTER)
        raise CompileError(f"unknown opcode {op!r}")  # pragma: no cover - exhaustive

    def run_batch(
        self,
        images: np.ndarray,
        corruption=None,
        verify_checksums: bool = False,
        timings: dict | None = None,
    ) -> BatchResult:
        """Execute one batch of real-valued inputs through the program.

        ``corruption`` (a
        :class:`~repro.serve.faults.CorruptionSpec`) injects seeded bit
        flips into one array instruction's weight tile or accumulator —
        or, for ``output`` targets, into the final ARGMAX's scores — so
        the corrupted numerics are bit-reproducible from the fault plan.
        ``verify_checksums`` arms the ABFT column/row checksums, raising
        :class:`~repro.serve.integrity.DetectedCorruptionError` on any
        in-envelope mismatch (``output`` flips happen after the last
        checked GEMM and are never caught here).  ``timings``, when a
        dict, accumulates the wall seconds of every executed instruction
        or fused group (a GEMM with its fused reader, a capsule run) under
        its compiled layer, or its opcode name when it has none.
        """
        program = self.program
        images = np.asarray(images)
        expected = program.input_shape
        if images.ndim == len(expected) and len(expected) == 3 and expected[0] == 1:
            images = images[:, np.newaxis]
        if images.ndim != len(expected) + 1 or images.shape[1:] != tuple(expected):
            raise ShapeError(f"batch shape {images.shape} != (B,) + {tuple(expected)}")
        batch = images.shape[0]
        if batch < 1:
            raise ShapeError("batch must contain at least one image")
        fault = None
        if corruption is not None:
            fault = _Fault(corruption, verify_checksums, self._victim_instruction(corruption))

        env: dict[str, np.ndarray] = {
            program.input: to_raw(images, program.input_fmt).astype(_REGISTER)
        }
        env.update(self._constant_registers(batch))
        #: (root register, layout, float dtype) -> its float panel.
        panels: dict[tuple, np.ndarray] = {}
        outputs: dict[str, np.ndarray] = {}
        instructions, skip = program.instructions, self._skip
        pos = 0
        while pos < len(instructions):
            if pos in skip:
                pos += 1
                continue
            if timings is not None:
                began, at = time.perf_counter(), pos
            instr = instructions[pos]
            op = instr.opcode
            if pos in self._runs:
                end = self._runs[pos][0]
                env[instructions[end].dest] = self._capsule_run(pos, env, panels, fault)
                pos = end
            elif op is Opcode.GEMM or op is Opcode.GROUPED_GEMM:
                env[self._fused.get(pos, instr.dest)] = self._gemm(pos, env, panels, fault)
            elif pos in self._orders:
                order = self._orders[pos]
                views = {src: env[src].transpose(order.perm) for src in instr.srcs}
                result = self._execute(instr, views, batch, order.axis)
                env[instr.dest] = result.transpose(order.inverse)
            elif op is Opcode.ARGMAX:
                src = env[instr.srcs[0]]
                if fault is not None and fault.spec.target == "output":
                    # Output-target corruption lands after every checked
                    # GEMM: flip the readout scores so the served
                    # predictions are wrong and no inline check can see it.
                    from repro.serve.integrity import apply_corruption

                    src = apply_corruption(src, fault.spec)
                    fault = None
                env[instr.dest] = np.argmax(src, axis=-1)
            elif op is Opcode.STORE:
                src = env[instr.srcs[0]]
                outputs[instr.attrs["alias"]] = src if src.flags.writeable else src.copy()
            else:
                env[instr.dest] = self._execute(instr, env, batch)
            if timings is not None:
                layer = self._layers[at]
                timings[layer] = timings.get(layer, 0.0) + time.perf_counter() - began
            pos += 1

        if "predictions" not in outputs:
            raise CompileError(
                f"program {program.name!r} stores no 'predictions' output"
            )
        layers, accesses = self._accounting(batch)
        self.accelerator.count_reads(accesses)
        fields = {f: outputs[f] for f in _RESULT_FIELDS if f in outputs}
        return BatchResult(
            batch=batch,
            predictions=outputs["predictions"],
            layers=dict(layers),
            outputs=outputs,
            **fields,
        )
