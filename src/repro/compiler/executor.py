"""Bit-accurate batched execution of compiled instruction streams.

:class:`StreamExecutor` runs a :class:`~repro.compiler.isa.Program` over a
``(B, ...)`` image batch on one :class:`~repro.hw.accelerator.CapsAccAccelerator`.
Every register holds a batched tensor (leading ``B`` axis prepended to the
program's per-image shapes).  Numerics and accounting are separate:

* **Numerics.**  Weight tiles are staged once, at construction
  (:class:`~repro.capsnet.hwops.StagedWeights`).  Each run of per-capsule
  ``SLICE → LOAD_T → GEMM → RESHAPE`` groups closed by a ``CONCAT`` (the
  ClassCaps lowering) executes as one contraction over the capsule axis,
  and an ``IM2COL`` read only by its GEMM is gathered by that GEMM.  The
  ``fast`` engine runs GEMMs through
  :func:`~repro.capsnet.hwops.saturating_matmul` (one BLAS call whenever
  a per-call bound proves no accumulator clip can trigger); the
  ``stepped`` engine drives the systolic array clock edge by clock edge,
  one array job at a time.
  Activations run through a shared
  :class:`~repro.hw.activation.ActivationUnit` built from the network's own
  LUT ROMs.
* **Accounting.**  Cycles and buffer traffic depend on shapes only, so
  ``BatchResult.layers``, trace events and the accelerator's buffer
  counters come from the closed-form pricing of :mod:`repro.compiler.cost`,
  memoized per batch size.

Calls share no mutable state apart from those buffer counters (statistics
the serving path never reads), so one executor serves concurrent threads.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from repro.capsnet.hwops import StagedWeights, saturating_matmul
from repro.capsnet.ops import im2col
from repro.compiler.cost import program_events, program_layers
from repro.compiler.isa import Instruction, Opcode, Program
from repro.errors import CompileError, MappingError, ShapeError
from repro.fixedpoint.arith import requantize, saturate_raw
from repro.fixedpoint.quantize import to_raw
from repro.hw.accelerator import CapsAccAccelerator, plan_tiling
from repro.hw.activation import ActivationUnit
from repro.hw.report import BatchResult

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


def _requant(acc: np.ndarray, attrs: dict) -> np.ndarray:
    """The width reduction a GEMM instruction folds in, if any."""
    if attrs.get("requant_to") is None:
        return acc
    return requantize(acc, attrs["acc_fmt"], attrs["requant_to"])


class _Fault(NamedTuple):
    """One call's corruption: the spec, whether checks are armed, and
    the array instruction it lands on."""

    spec: object
    verify: bool
    victim: int


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
        self._gemm_positions = [
            index
            for index, instr in enumerate(program.instructions)
            if instr.opcode in (Opcode.GEMM, Opcode.GROUPED_GEMM)
        ]
        self._accounts: dict[int, tuple] = {}
        #: GEMM position -> staged weight tile (outside capsule runs).
        self._tiles: dict[int, StagedWeights] = {}
        #: Capsule run start -> (closing CONCAT position, stacked tiles).
        self._runs: dict[int, tuple[int, StagedWeights]] = {}
        #: GEMM position -> position of the IM2COL it gathers itself.
        self._gathers: dict[int, int] = {}
        self._stage()

    # ---- staging ---------------------------------------------------------------

    def _stage(self) -> None:
        """Stage weight tiles and find the fused runs, once per program."""
        instructions = self.program.instructions
        uses = Counter(src for instr in instructions for src in instr.srcs)
        uses.update(instr.attrs["wreg"] for instr in instructions if "wreg" in instr.attrs)
        loads: dict[str, np.ndarray] = {}
        weights: dict[int, np.ndarray] = {}
        for pos, instr in enumerate(instructions):
            if instr.opcode is Opcode.LOAD_T:
                loads[instr.dest] = self._load(instr)
            elif instr.opcode is Opcode.GEMM:
                weights[pos] = loads[instr.attrs["wreg"]]
            elif instr.opcode is Opcode.IM2COL and uses[instr.dest] == 1:
                reader = pos + 1
                while reader < len(instructions) and instructions[reader].opcode is Opcode.LOAD_T:
                    reader += 1
                if reader < len(instructions) and instructions[reader].srcs == (instr.dest,):
                    if instructions[reader].opcode is Opcode.GEMM:
                        self._gathers[reader] = pos
            elif instr.opcode is Opcode.CONCAT:
                start = self._capsule_run_start(pos, uses)
                if start is not None:
                    stacked = np.stack([weights.pop(p) for p in range(start + 2, pos, 4)])
                    acc_fmt = instructions[start + 2].attrs["acc_fmt"]
                    self._runs[start] = (pos, StagedWeights(stacked, acc_fmt))
        for pos, tile in weights.items():
            self._tiles[pos] = StagedWeights(tile, instructions[pos].attrs["acc_fmt"])

    def _load(self, instr: Instruction) -> np.ndarray:
        """The ``(K, N)`` weight matrix a ``LOAD_T`` stages."""
        key = instr.attrs["key"]
        if key not in self.params:
            raise CompileError(f"program references unknown param {key!r}")
        tile = self.params[key]
        index = instr.attrs.get("index")
        if index is not None:
            tile = tile[index]
        reshape = instr.attrs.get("reshape")
        if reshape is not None:
            tile = tile.reshape(tuple(reshape))
        if instr.attrs.get("transpose", False):
            tile = tile.T
        return np.asarray(tile, dtype=np.int64)

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
        """``(layers, events, accesses)`` of a batch size (memoized)."""
        account = self._accounts.get(batch)
        if account is None:
            config = self.accelerator.config
            layers = program_layers(config, self.program, batch)
            accesses: Counter = Counter()
            for report in layers.values():
                accesses.update(report.stats.accesses)
            account = (layers, program_events(config, self.program, batch), accesses)
            self._accounts[batch] = account
        return account

    # ---- numerics --------------------------------------------------------------

    def _product(
        self, data: np.ndarray, tile: StagedWeights, attrs: dict, rowsum=None
    ) -> np.ndarray:
        """``(..., M, K) @ (..., K, N)`` on the selected engine.

        The stepped engine runs one array job per leading index of a
        stacked tile, and one job over every leading row of a shared 2-D
        tile, as the accelerator would issue them.
        """
        acc_fmt = attrs["acc_fmt"]
        config = self.accelerator.config
        if self.engine == "fast":
            return saturating_matmul(data, tile, acc_fmt, config.rows, rowsum)
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
        return np.stack(accs).reshape(data.shape[:-1] + (n,))

    def _patches(
        self, x: np.ndarray, kernel: int, stride: int, tile: StagedWeights
    ) -> tuple:
        """``(patches, rowsum)`` of ``x`` for a GEMM against ``tile``.

        On the fast engine the GEMM's row bound comes from window sums of
        the channel-summed magnitudes, without the patch matrix, and the
        patches are gathered straight into the tile's float dtype when
        that bound proves the product exact.
        """
        if self.engine != "fast":
            return im2col(x, kernel, stride), None
        magnitude = np.abs(x).sum(axis=1, keepdims=True, dtype=np.float64)
        rowsum = im2col(magnitude, kernel, stride).sum(axis=-1).max(initial=0.0)
        if float(rowsum) * tile.max <= tile.limit:
            x = x.astype(tile.float.dtype)
        return im2col(x, kernel, stride), rowsum

    @staticmethod
    def _corrupt(fault: _Fault | None, pos: int, target: str, tensor, axis: int, kind: str):
        """``tensor``, with the seeded flips if ``fault`` lands on ``pos``'s ``target``.

        ``axis`` picks the ABFT reduction an armed check runs (``-2``
        column sums for weight tiles, ``-1`` row sums for accumulators),
        exact in int64.  Verification is numeric only here, at the
        corrupted instruction — every other instruction's tensors are
        bit-identical to the clean run by construction, so their checks
        cannot fire; the *cost* of checking them everywhere is what the
        cost models price in.
        """
        if fault is None or fault.victim != pos or fault.spec.target != target:
            return tensor
        from repro.serve.integrity import DetectedCorruptionError, apply_corruption

        clean = np.asarray(tensor, dtype=np.int64)
        corrupted = apply_corruption(clean, fault.spec)
        if fault.verify and not np.array_equal(corrupted.sum(axis=axis), clean.sum(axis=axis)):
            raise DetectedCorruptionError(
                f"ABFT checksum mismatch on {kind}"
                f" (target {fault.spec.target}, {fault.spec.bits} bit flips)"
            )
        return corrupted

    def _gemm(self, pos: int, env: dict, fault: _Fault | None) -> np.ndarray:
        """Execute the ``GEMM`` at ``pos`` (with its gathered ``IM2COL``)."""
        instr = self.program.instructions[pos]
        attrs = instr.attrs
        tile = self._tiles[pos]
        weights = self._corrupt(fault, pos, "weight", tile.raw, -2, f"weight tile {attrs['wreg']}")
        if weights is not tile.raw:
            tile = StagedWeights(weights, attrs["acc_fmt"])
        if pos in self._gathers:
            gather = self.program.instructions[self._gathers[pos]]
            data, rowsum = self._patches(
                env[gather.srcs[0]], gather.attrs["kernel"], gather.attrs["stride"], tile
            )
        else:
            data, rowsum = env[instr.srcs[0]], None
        acc = self._product(data, tile, attrs, rowsum)
        acc = self._corrupt(fault, pos, "accumulator", acc, -1, f"accumulator of {instr.layer}")
        if attrs.get("bias") is not None:
            bias = self.params[attrs["bias"]][np.newaxis, np.newaxis, :]
            acc = saturate_raw(acc + bias, attrs["acc_fmt"])
        return _requant(acc, attrs)

    def _capsule_run(self, start: int, env: dict, fault: _Fault | None) -> np.ndarray:
        """One ``(I, B, K) @ (I, K, N)`` contraction for a whole capsule run.

        Capsule ``i``'s GEMM streams the ``B`` vectors ``x[:, i]`` through
        its private tile.  Corruption aimed at it flips the same element of
        that tile or of its ``(B, 1, N)`` accumulator as the GEMM alone
        would, and raises the same detection.
        """
        instructions = self.program.instructions
        end, tiles = self._runs[start]
        attrs = instructions[start + 2].attrs
        count = len(tiles.raw)
        data = env[instructions[start].srcs[0]][:, :count].transpose(1, 0, 2)
        acc = self._product(data, tiles, attrs)
        index, offset = divmod(fault.victim - start - 2, 4) if fault else (-1, 0)
        if offset == 0 and 0 <= index < count:
            gemm = instructions[fault.victim]
            clean = tiles.raw[index]
            weights = self._corrupt(
                fault, fault.victim, "weight", clean, -2, f"weight tile {gemm.attrs['wreg']}"
            )
            if weights is not clean:
                staged = StagedWeights(weights, attrs["acc_fmt"])
                acc[index] = self._product(data[index], staged, attrs)
            acc[index] = self._corrupt(
                fault, fault.victim, "accumulator", acc[index][:, np.newaxis], -1,
                f"accumulator of {gemm.layer}",
            )[:, 0]
        shape = tuple(instructions[start + 3].attrs["shape"])
        return _requant(acc, attrs).transpose(1, 0, 2).reshape((data.shape[1], count) + shape)

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

    def run_batch(
        self,
        images: np.ndarray,
        trace: list | None = None,
        corruption=None,
        verify_checksums: bool = False,
    ) -> BatchResult:
        """Execute one batch of real-valued inputs through the program.

        ``trace``, when a list, receives the batch's
        :class:`~repro.hw.report.TraceEvent` sequence.  ``corruption`` (a
        :class:`~repro.serve.faults.CorruptionSpec`) injects seeded bit
        flips into one array instruction's weight tile or accumulator —
        or, for ``output`` targets, into the final ARGMAX's scores — so
        the corrupted numerics are bit-reproducible from the fault plan.
        ``verify_checksums`` arms the ABFT column/row checksums, raising
        :class:`~repro.serve.integrity.DetectedCorruptionError` on any
        in-envelope mismatch (``output`` flips happen after the last
        checked GEMM and are never caught here).
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

        env: dict[str, np.ndarray] = {program.input: to_raw(images, program.input_fmt)}
        outputs: dict[str, np.ndarray] = {}
        gathered = self._gathers.values()
        instructions = program.instructions
        pos = 0
        while pos < len(instructions):
            instr = instructions[pos]
            op, attrs, dest = instr.opcode, instr.attrs, instr.dest
            src = env.get(instr.srcs[0]) if instr.srcs else None
            if pos in self._runs:
                end = self._runs[pos][0]
                env[instructions[end].dest] = self._capsule_run(pos, env, fault)
                pos = end
            elif op is Opcode.GEMM:
                env[dest] = self._gemm(pos, env, fault)
            elif op is Opcode.GROUPED_GEMM:
                # (B, G, M, K) @ (B, G, K, N): flat element order is that of
                # the (B*G, ...) job, so seeded flips land identically.
                weights = self._corrupt(
                    fault, pos, "weight", env[instr.srcs[1]], -2, f"weight tiles of {instr.layer}"
                )
                acc = self._product(src, StagedWeights(weights, attrs["acc_fmt"]), attrs)
                acc = self._corrupt(
                    fault, pos, "accumulator", acc, -1, f"accumulator of {instr.layer}"
                )
                env[dest] = _requant(acc, attrs).reshape((batch,) + tuple(attrs["out_shape"]))
            elif op is Opcode.IM2COL:
                if pos not in gathered:
                    env[dest] = im2col(src, attrs["kernel"], attrs["stride"])
            elif op is Opcode.RELU:
                env[dest] = self.activation.relu(src, attrs["in_fmt"], attrs["out_fmt"])
            elif op is Opcode.SQUASH:
                env[dest] = self.activation.squash(src, attrs["in_fmt"])
            elif op is Opcode.SOFTMAX:
                env[dest] = self.activation.softmax(src, axis=-1)
            elif op is Opcode.NORM:
                # Final length readout: the legacy lowering never charged it.
                env[dest] = self.activation.norm(src, attrs["in_fmt"])[1]
            elif op is Opcode.ARGMAX:
                if fault is not None and fault.spec.target == "output":
                    # Output-target corruption lands after every checked
                    # GEMM: flip the readout scores so the served
                    # predictions are wrong and no inline check can see it.
                    from repro.serve.integrity import apply_corruption

                    src = apply_corruption(src, fault.spec)
                    fault = None
                env[dest] = np.argmax(src, axis=-1)
            elif op is Opcode.REQUANT:
                env[dest] = requantize(src, attrs["from_fmt"], attrs["to_fmt"])
            elif op is Opcode.RESHAPE:
                env[dest] = src.reshape((batch,) + tuple(attrs["shape"]))
            elif op is Opcode.TRANSPOSE:
                env[dest] = src.transpose((0,) + tuple(p + 1 for p in attrs["perm"]))
            elif op is Opcode.SLICE:
                axis = attrs["axis"] + 1
                index = (slice(None),) * axis + (slice(attrs["start"], attrs["stop"]),)
                env[dest] = src[index]
            elif op is Opcode.CONCAT:
                env[dest] = np.stack([env[s] for s in instr.srcs], axis=1)
            elif op is Opcode.ADD_SAT:
                a, b = instr.srcs
                env[dest] = saturate_raw(env[a] + env[b], attrs["fmt"])
            elif op is Opcode.CONST:
                shape = (batch,) + tuple(attrs["shape"])
                env[dest] = np.full(shape, attrs["value"], dtype=np.int64)
            elif op is Opcode.STORE:
                outputs[attrs["alias"]] = src
            elif op is not Opcode.LOAD_T:  # pragma: no cover - exhaustive over Opcode
                raise CompileError(f"unknown opcode {op!r}")
            pos += 1

        if "predictions" not in outputs:
            raise CompileError(
                f"program {program.name!r} stores no 'predictions' output"
            )
        layers, events, accesses = self._accounting(batch)
        self.accelerator.count_reads(accesses)
        if trace is not None:
            trace.extend(events)
        fields = {f: outputs[f] for f in _RESULT_FIELDS if f in outputs}
        return BatchResult(
            batch=batch,
            predictions=outputs["predictions"],
            layers={
                name: replace(
                    report,
                    stats=replace(report.stats, accesses=dict(report.stats.accesses)),
                )
                for name, report in layers.items()
            },
            outputs=outputs,
            **fields,
        )
