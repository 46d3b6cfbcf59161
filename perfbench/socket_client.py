"""Load generator for the JSONL socket front end, run as its own process.

Reads one JSON object from stdin: ``{"port", "seconds", "connections",
"window", "images"}`` where ``images`` holds the pool as JSON-encoded
image strings.  Each connection keeps ``window`` requests outstanding
(a reply frees a slot for the next request) until ``seconds`` elapse,
then waits for its outstanding replies.  Request ``id`` ``n`` carries
pool image ``n % len(images)``.  Prints one JSON object whose
``records`` hold ``[id, sent_s, rtt_s, prediction or error]`` per
request, ``sent_s`` counted from the start of the run.  Standard
library only, so start-up stays small.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

#: A reply that never comes within this long after the run fails the run.
REPLY_TIMEOUT_S = 60.0


async def connection(port, start, stop_at, window, lines, ids, records):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    sent: dict[int, float] = {}

    def send() -> None:
        request_id = next(ids)
        image = lines[request_id % len(lines)]
        writer.write(b'{"id": %d, "image": %s}\n' % (request_id, image))
        sent[request_id] = time.perf_counter()

    try:
        for _ in range(window):
            send()
        await writer.drain()
        while sent:
            line = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT_S)
            now = time.perf_counter()
            if not line:
                raise ConnectionError("server closed the connection")
            reply = json.loads(line)
            request_id = reply.get("id")
            if request_id not in sent:
                raise ValueError(f"reply without a known request id: {reply}")
            outcome = reply.get("prediction", reply.get("error", "no prediction"))
            sent_at = sent.pop(request_id)
            records.append((request_id, sent_at - start, now - sent_at, outcome))
            if now < stop_at:
                send()
                await writer.drain()
    finally:
        writer.close()
        await writer.wait_closed()


async def run(spec: dict) -> dict:
    lines = [image.encode() for image in spec["images"]]
    records: list = []
    ids = iter(range(1 << 62))
    start = time.perf_counter()
    stop_at = start + spec["seconds"]
    await asyncio.gather(
        *(
            connection(spec["port"], start, stop_at, spec["window"], lines, ids, records)
            for _ in range(spec["connections"])
        )
    )
    return {"records": records}


def main() -> int:
    spec = json.loads(sys.stdin.read())
    json.dump(asyncio.run(run(spec)), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
