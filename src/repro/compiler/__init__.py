"""repro.compiler: a graph→ISA compiler that makes networks data.

The compiler stack has four layers:

* :mod:`repro.compiler.ir` — a tiny typed graph IR (tensor nodes + op
  nodes) with validation, shape inference and topological sort;
* :mod:`repro.compiler.isa` — the accelerator instruction set; a compiled
  :class:`Program` is a flat stream with explicit weight-tile reuse;
* :mod:`repro.compiler.lower` — the lowering pass, :func:`compile_graph`;
* :mod:`repro.compiler.executor` — bit-accurate batched execution that
  reports the program's closed-form accounting;

plus :mod:`repro.compiler.golden` (independent graph interpretation and
golden-equivalence checking), :mod:`repro.compiler.cost` (closed-form
pricing of compiled streams for serving/sweeps/energy) and
:mod:`repro.compiler.zoo` (the model zoo of servable networks).
"""

from repro.compiler.cost import (
    program_batch_cycles,
    program_events,
    program_ops,
    program_stats,
    program_steady_cycles,
    program_stream_timing,
)
from repro.compiler.executor import StreamExecutor
from repro.compiler.golden import check_network, evaluate_graph
from repro.compiler.ir import (
    Graph,
    GraphBuilder,
    OpNode,
    ParamSpec,
    TensorNode,
    graph_from_json,
)
from repro.compiler.isa import Instruction, Opcode, Program, program_from_json
from repro.compiler.lower import compile_graph
from repro.compiler.zoo import (
    CompiledNetwork,
    as_compiled,
    capsnet_graph,
    cifar_capsnet_config,
    cnn_graph,
    compile_qnet,
    get_network,
    mlp_graph,
    mnist_capsnet_graph,
    zoo_names,
)

__all__ = [
    "CompiledNetwork",
    "Graph",
    "GraphBuilder",
    "Instruction",
    "Opcode",
    "OpNode",
    "ParamSpec",
    "Program",
    "StreamExecutor",
    "TensorNode",
    "as_compiled",
    "capsnet_graph",
    "check_network",
    "cifar_capsnet_config",
    "cnn_graph",
    "compile_graph",
    "compile_qnet",
    "evaluate_graph",
    "get_network",
    "graph_from_json",
    "mlp_graph",
    "mnist_capsnet_graph",
    "program_batch_cycles",
    "program_events",
    "program_from_json",
    "program_ops",
    "program_stats",
    "program_steady_cycles",
    "program_stream_timing",
    "zoo_names",
]
