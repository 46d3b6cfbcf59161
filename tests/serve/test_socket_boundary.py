"""Property test at the JSONL socket boundary.

Random mixes of valid and malformed lines over one or two connections:
every line gets exactly one reply, every valid line's prediction is the
offline quantized network's, and a rejected line moves no report
counter.
"""

import asyncio
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.data.synthetic import SyntheticDigits
from repro.serve import ScheduledBatchCost, ServerConfig, ServingRuntime
from repro.serve.workers import CompiledStreamExecutor

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

POOL = 8

#: Every rejected line's error starts so; its reply carries the line's own
#: id, or None when the line is not a JSON object.
BAD = "bad request: "


@pytest.fixture(scope="module")
def boundary(tiny_config):
    images = SyntheticDigits(size=tiny_config.image_size, seed=29).generate(POOL).images
    expected = QuantizedCapsuleNet(tiny_config).predict_batch(images)
    server = ServerConfig.from_policy(
        "fifo",
        ScheduledBatchCost("tiny"),
        max_batch=4,
        max_wait_us=300.0,
        arrays=1,
        network_name="tiny",
    )
    return images, expected, server, CompiledStreamExecutor(tiny_config)


ids = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"]))

#: ``(kind, id, detail)``: ``detail`` picks the pool image, the bad
#: deadline or the bad image shape.
lines = st.one_of(
    st.tuples(st.just("valid"), ids, st.integers(0, POOL - 1)),
    st.tuples(st.just("deadline"), ids, st.sampled_from([True, "soon", math.nan, math.inf, -math.inf])),
    st.tuples(st.just("shape"), ids, st.sampled_from([(1, 1), (3,), (), "1x1"])),
    st.tuples(st.just("not_json"), st.none(), st.sampled_from([b"not json", b"{", b'{"id": 1,'])),
    st.tuples(st.just("not_object"), st.none(), st.sampled_from([b"[1, 2]", b"3", b'"x"', b"null"])),
    st.tuples(st.just("too_long"), st.none(), st.just(None)),
)


def encode(line, images) -> bytes:
    kind, request_id, detail = line
    if kind == "valid":
        payload = {"id": request_id, "image": images[detail].tolist()}
    elif kind == "deadline":
        payload = {"id": request_id, "image": images[0].tolist(), "deadline_us": detail}
    elif kind == "shape":
        image = detail if isinstance(detail, str) else np.zeros(detail).tolist()
        payload = {"id": request_id, "image": image}
    elif kind == "too_long":
        return b'{"id": 1, "image": "' + b"x" * 70_000 + b'"}\n'
    else:
        return detail + b"\n"
    return (json.dumps(payload) + "\n").encode()


def expected_reply(line, expected) -> tuple:
    kind, request_id, detail = line
    if kind == "valid":
        return (request_id, "prediction", int(expected[detail]))
    return (request_id, "error", BAD)


def observed_reply(reply) -> tuple:
    if "prediction" in reply:
        return (reply["id"], "prediction", reply["prediction"])
    assert reply["error"].startswith(BAD), reply
    return (reply["id"], "error", BAD)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    connections=st.lists(
        st.lists(lines, min_size=1, max_size=10), min_size=1, max_size=2
    )
)
def test_every_line_gets_one_reply_and_rejects_count_nothing(boundary, connections):
    images, expected, server, executor = boundary

    async def exchange(port, batch):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"".join(encode(line, images) for line in batch))
        await writer.drain()
        replies = [
            json.loads(await asyncio.wait_for(reader.readline(), 10.0)) for _ in batch
        ]
        # Exactly one reply per line: nothing more arrives before EOF.
        writer.write_eof()
        extra = await asyncio.wait_for(reader.read(), 10.0)
        writer.close()
        await writer.wait_closed()
        return replies, extra

    async def scenario():
        runtime = ServingRuntime(server, executor=executor)
        socket_server = await runtime.serve_socket()
        port = socket_server.sockets[0].getsockname()[1]
        results = await asyncio.gather(*(exchange(port, batch) for batch in connections))
        socket_server.close()
        await socket_server.wait_closed()
        await runtime.stop()
        return results, runtime.report()

    results, report = asyncio.run(scenario())
    for batch, (replies, extra) in zip(connections, results):
        assert extra == b""
        assert Counter(map(observed_reply, replies)) == Counter(
            expected_reply(line, expected) for line in batch
        )
    valid = sum(line[0] == "valid" for batch in connections for line in batch)
    assert (report.offered, report.completed) == (valid, valid)
    assert (report.shed_count, report.failed_count) == (0, 0)
