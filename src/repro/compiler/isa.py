"""The accelerator instruction set.

A compiled :class:`Program` is a flat list of :class:`Instruction`\\ s over a
register file of named batched tensors.  Three instruction classes exist:

* **array work** — ``GEMM`` / ``GROUPED_GEMM`` execute on the systolic array
  (the only instructions that cost array cycles); ``LOAD_T`` stages a weight
  tile sequence for the next ``GEMM`` (its load cycles are accounted inside
  the GEMM's tiling plan);
* **activation unit** — ``RELU`` / ``SQUASH`` / ``SOFTMAX`` / ``NORM`` run
  on the per-column activation units with the paper's Section IV-C
  latencies (``NORM`` at the readout is free: the cycle model never
  charges the final norm);
* **layout/bookkeeping** — ``IM2COL``, ``REQUANT``, ``RESHAPE``,
  ``TRANSPOSE``, ``SLICE``, ``CONCAT``, ``ADD_SAT``, ``CONST``, ``ARGMAX``,
  ``STORE`` are free: they model address generation and datapath wiring the
  cycle model never charged.

Every array/activation instruction stamps its **per-image** work shape
(``m``/``k``/``n``/``groups`` or activation ``n``/``groups``) so
:mod:`repro.compiler.cost` can price a program for any batch size in closed
form, bit-identical to executing it.  The routing lowering also stamps
``transfer_words``, a step's per-image bulk buffer traffic, on the routing
``CONST`` (the ``load`` step), each ``SOFTMAX``, each ``SQUASH`` and each
update ``GROUPED_GEMM``; only the paper figures charge these
(:func:`~repro.compiler.cost.program_transfer_cycles`) — serving prices,
the trace events and the executor ignore them.  Programs serialize to
JSON and to a readable text listing.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import CompileError
from repro.fixedpoint.formats import QFormat


class Opcode(enum.Enum):
    """Instruction opcodes of the CapsAcc stream ISA."""

    LOAD_T = "load_t"
    IM2COL = "im2col"
    GEMM = "gemm"
    GROUPED_GEMM = "grouped_gemm"
    RELU = "relu"
    SQUASH = "squash"
    SOFTMAX = "softmax"
    NORM = "norm"
    ARGMAX = "argmax"
    REQUANT = "requant"
    RESHAPE = "reshape"
    TRANSPOSE = "transpose"
    SLICE = "slice"
    CONCAT = "concat"
    ADD_SAT = "add_sat"
    CONST = "const"
    STORE = "store"


#: Opcodes that execute GEMM work on the systolic array.
ARRAY_OPCODES = frozenset({Opcode.GEMM, Opcode.GROUPED_GEMM})
#: Opcodes that occupy the activation units (when ``record`` is set).
ACTIVATION_OPCODES = frozenset({Opcode.RELU, Opcode.SQUASH, Opcode.SOFTMAX})


@dataclass
class Instruction:
    """One decoded instruction: opcode, register operands, attributes.

    ``layer`` names the :class:`~repro.hw.report.LayerReport` bucket the
    instruction's cycles land in (``None`` for free instructions).
    """

    opcode: Opcode
    dest: str | None = None
    srcs: tuple[str, ...] = ()
    layer: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def text(self) -> str:
        """One readable listing line."""
        parts = [self.opcode.value.upper().ljust(12)]
        if self.dest:
            parts.append(f"{self.dest} <-")
        if self.srcs:
            parts.append(", ".join(self.srcs))
        shown = {
            k: v
            for k, v in self.attrs.items()
            if k in ("job", "key", "index", "m", "k", "n", "groups", "mode", "value",
                     "shape", "perm", "axis", "start", "stop", "stride", "kernel",
                     "data_source", "weight_source", "wreg", "record", "alias",
                     "transfer_words")
        }
        if self.layer:
            shown["layer"] = self.layer
        if shown:
            parts.append(
                "{" + ", ".join(f"{k}={v}" for k, v in sorted(shown.items())) + "}"
            )
        return " ".join(parts)


def _encode(value: Any) -> Any:
    if isinstance(value, QFormat):
        return {"__qformat__": [value.total_bits, value.frac_bits, bool(value.signed)]}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v) for v in value]}
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    return value


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "__qformat__" in value:
            total, frac, signed = value["__qformat__"]
            return QFormat(total_bits=int(total), frac_bits=int(frac), signed=bool(signed))
        if "__tuple__" in value:
            return tuple(_decode(v) for v in value["__tuple__"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


@dataclass
class Program:
    """A compiled instruction stream plus its execution interface."""

    name: str
    #: Register name the quantized input batch is written to.
    input: str
    #: Per-image input shape ``(C, H, W)`` (or any rank for non-image nets).
    input_shape: tuple[int, ...]
    #: Fixed-point format the real-valued input quantizes to.
    input_fmt: QFormat
    instructions: list[Instruction] = field(default_factory=list)
    #: Output alias -> register name; aliases become ``BatchResult.outputs``.
    outputs: dict[str, str] = field(default_factory=dict)

    def gemm_instructions(self) -> list[Instruction]:
        """The instructions that execute on the array, in order."""
        return [i for i in self.instructions if i.opcode in ARRAY_OPCODES]

    @property
    def num_instructions(self) -> int:
        return len(self.instructions)

    def text(self) -> str:
        """Readable listing of the whole program."""
        header = (
            f"; program {self.name}: input {self.input} {self.input_shape}"
            f" @ {self.input_fmt.describe()}, {len(self.instructions)} instructions"
        )
        lines = [header]
        lines += [
            f"{index:5d}  {instr.text()}"
            for index, instr in enumerate(self.instructions)
        ]
        lines.append(
            "; outputs: "
            + ", ".join(f"{alias}={reg}" for alias, reg in self.outputs.items())
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Serialize (attrs included, formats tagged) to JSON."""
        doc = {
            "name": self.name,
            "input": self.input,
            "input_shape": list(self.input_shape),
            "input_fmt": _encode(self.input_fmt),
            "outputs": self.outputs,
            "instructions": [
                {
                    "opcode": instr.opcode.value,
                    "dest": instr.dest,
                    "srcs": list(instr.srcs),
                    "layer": instr.layer,
                    "attrs": _encode(instr.attrs),
                }
                for instr in self.instructions
            ],
        }
        return json.dumps(doc, indent=2)


def program_from_json(text: str) -> Program:
    """Rebuild a :class:`Program` from :meth:`Program.to_json` output."""
    try:
        doc = json.loads(text)
        program = Program(
            name=doc["name"],
            input=doc["input"],
            input_shape=tuple(int(d) for d in doc["input_shape"]),
            input_fmt=_decode(doc["input_fmt"]),
            outputs=dict(doc["outputs"]),
            instructions=[
                Instruction(
                    opcode=Opcode(i["opcode"]),
                    dest=i["dest"],
                    srcs=tuple(i["srcs"]),
                    layer=i["layer"],
                    attrs=_decode(i["attrs"]),
                )
                for i in doc["instructions"]
            ],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CompileError(f"malformed program document: {exc}") from exc
    return program
