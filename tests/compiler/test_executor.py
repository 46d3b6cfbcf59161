"""The stream executor's run loop: the ``timings`` sink and folded constants."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.compiler.executor import StreamExecutor
from repro.compiler.isa import Opcode
from repro.compiler.zoo import get_network
from tests.compiler.conftest import zoo_images


def executor(name: str) -> StreamExecutor:
    net = get_network(name)
    return StreamExecutor(net.program, net.params, net.formats, luts=net.luts)


def assert_same_outputs(got, want) -> None:
    assert got.outputs.keys() == want.outputs.keys()
    for alias, value in want.outputs.items():
        assert np.array_equal(got.outputs[alias], value), alias


class TestTimings:
    def test_timings_cover_every_gemm_layer_and_change_no_output(self):
        stream = executor("mnist")
        images = zoo_images("mnist", count=2)
        plain = stream.run_batch(images)
        timings: dict[str, float] = {}
        timed = stream.run_batch(images, timings=timings)
        assert_same_outputs(timed, plain)
        gemm_layers = {
            instr.layer
            for instr in stream.program.instructions
            if instr.opcode in (Opcode.GEMM, Opcode.GROUPED_GEMM)
        }
        assert {"conv1", "primarycaps", "classcaps_fc", "sum1", "update2"} <= gemm_layers
        for layer in gemm_layers:
            assert timings[layer] > 0, layer
        # Every routing step is booked under its own layer; u_hat's
        # class-major panels are staged inside the ClassCaps run.
        routing = ["sum1", "sum2", "sum3", "update1", "update2", "softmax2", "softmax3"]
        for layer in routing:
            assert timings.get(layer, 0.0) > 0, layer
        # The first routing softmax is folded, so it never executes.
        assert "softmax1" not in timings

    def test_timings_accumulate_over_batches(self):
        stream = executor("tiny")
        images = zoo_images("tiny", count=3)
        timings: dict[str, float] = {}
        stream.run_batch(images, timings=timings)
        once = dict(timings)
        stream.run_batch(images, timings=timings)
        assert timings.keys() == once.keys()
        assert all(timings[layer] > once[layer] for layer in once)


class TestFoldedConstants:
    def test_first_softmax_and_its_views_are_folded_read_only(self):
        stream = executor("tiny")
        instructions = stream.program.instructions
        softmax = next(
            pos for pos, instr in enumerate(instructions) if instr.opcode is Opcode.SOFTMAX
        )
        assert instructions[softmax].layer == "softmax1"
        assert softmax in stream._skip
        const = instructions[softmax].srcs[0]
        assert {const, instructions[softmax].dest} <= stream._folded.keys()
        stream.run_batch(zoo_images("tiny", count=4))
        for name, value in stream._constant_registers(4).items():
            assert value.shape[0] == 4, name
            assert not value.flags.writeable, name
            with pytest.raises(ValueError):
                value[...] = 1
        for value in stream._folded.values():
            assert not value.flags.writeable

    def test_constants_follow_the_batch_size(self):
        stream = executor("tiny")
        big, small = zoo_images("tiny", count=16), zoo_images("tiny", count=3)
        stream.run_batch(big)
        after_big = stream.run_batch(small)
        for name, value in stream._constant_registers(3).items():
            assert value.shape[0] == 3, name
        assert_same_outputs(after_big, executor("tiny").run_batch(small))

    def test_threads_sharing_one_executor_match_a_serial_run(self):
        stream = executor("tiny")
        batches = [zoo_images("tiny", count=count) for count in (16, 3, 1, 7)]
        serial = [executor("tiny").run_batch(images) for images in batches]
        results: dict[tuple[int, int, int], object] = {}
        errors: list[BaseException] = []

        def worker(thread: int) -> None:
            try:
                for round_ in range(3):
                    for index in range(len(batches)):
                        order = (index + thread) % len(batches)
                        results[thread, round_, order] = stream.run_batch(batches[order])
            except BaseException as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 2 * 3 * len(batches)
        for (_, _, order), result in results.items():
            assert_same_outputs(result, serial[order])

    def test_a_stored_folded_register_is_a_private_copy(self):
        # A one-iteration routing stores the folded first coupling.
        from dataclasses import replace

        from repro.compiler.isa import Instruction

        stream = executor("tiny")
        program = stream.program
        softmax = next(i for i in program.instructions if i.opcode is Opcode.SOFTMAX)
        store = Instruction(Opcode.STORE, None, (softmax.dest,), attrs={"alias": "first"})
        stored = StreamExecutor(
            replace(program, instructions=list(program.instructions) + [store]),
            stream.params, stream.activation.formats, luts=stream.activation.luts,
        )
        first = stored.run_batch(zoo_images("tiny", count=2)).outputs["first"]
        assert first.flags.writeable and first.shape[0] == 2
        first[...] = 0
        again = stored.run_batch(zoo_images("tiny", count=2)).outputs["first"]
        assert again.any()


class TestSharedAccounting:
    def test_layer_reports_are_shared_read_only_per_batch_size(self):
        # Every batch of a size hands out the same memoized layer reports:
        # mutating one must raise, not corrupt the next batch's accounting.
        stream = executor("tiny")
        images = zoo_images("tiny", count=3)
        first = stream.run_batch(images)
        want = {name: dict(r.stats.accesses) for name, r in first.layers.items()}
        for report in first.layers.values():
            for key in report.stats.accesses:
                with pytest.raises(TypeError):
                    report.stats.accesses[key] = 0
                with pytest.raises(TypeError):
                    report.stats.add_access(key, 1)
        first.layers.clear()
        again = stream.run_batch(images)
        assert {name: dict(r.stats.accesses) for name, r in again.layers.items()} == want
