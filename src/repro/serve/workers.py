"""Execution back-ends for the live serving runtime.

The runtime (:mod:`repro.serve.runtime`) separates *scheduling* (the
shared serving core) from *executing* (running a formed batch through the
quantized engine).  An executor models the physical accelerator arrays:
``execute(array, images)`` classifies one contiguous image batch on one
array and returns the predictions, bit-identical to the network's golden
interpretation.

Three implementations:

* :class:`CompiledStreamExecutor` — any model-zoo network
  (:class:`~repro.compiler.zoo.CompiledNetwork`) through its compiled
  instruction stream, in-process.  With the GIL released inside numpy's
  GEMMs, a thread pool over this executor is the fastest option on small
  hosts and the default.
* :class:`ProcessWorkerPool` — one OS process per array with zero-copy
  shared-memory image/prediction buffers, mirroring the simulated
  :class:`~repro.serve.dispatcher.ArrayPool` sizing; each worker rebuilds
  the network and runs the same compiled stream.  Survives a worker
  death by raising :class:`WorkerCrashError` with the array and exit
  detail instead of hanging.
* :class:`PredictedExecutor` — no compute at all (predictions are -1):
  for exercising the scheduling/backpressure machinery at offered loads
  far above what one host can classify.

All executors share the duck-typed surface the runtime drives:
``image_size``, ``execute(array, images)``, ``close()``.
"""

from __future__ import annotations

import multiprocessing
import threading
from multiprocessing import shared_memory

import numpy as np

from repro.capsnet.config import CapsNetConfig
from repro.compiler.executor import StreamExecutor
from repro.compiler.zoo import as_compiled, get_network
from repro.errors import ConfigError


class WorkerCrashError(RuntimeError):
    """An execution worker died mid-service (crash, kill, or lost pipe)."""


class CompiledStreamExecutor:
    """Run batches through a compiled zoo network's instruction stream.

    Serves any network :func:`~repro.compiler.zoo.as_compiled` accepts —
    capsule variants and baselines alike — through the compiler's
    :class:`~repro.compiler.executor.StreamExecutor`, so a network is
    live-servable the moment it compiles.  Grayscale request images are
    replicated across the network's input channels, keeping the runtime's
    single-channel image ring network-agnostic.  Calls share no state, so
    the runtime's array threads run them concurrently.
    """

    def __init__(self, network) -> None:
        compiled = as_compiled(network)
        self.network = compiled
        self.image_size = compiled.input_shape[-1]
        self.channels = compiled.input_shape[0]
        self._executor = StreamExecutor.for_network(compiled)

    def _images(self, images: np.ndarray) -> np.ndarray:
        if self.channels != 1 and images.ndim == 3:
            images = np.repeat(images[:, np.newaxis], self.channels, axis=1)
        return images

    def execute(self, array: int, images: np.ndarray) -> np.ndarray:
        """Classify ``(N, H, W)`` images; returns ``(N,)`` predictions."""
        return self._executor.run_batch(self._images(images)).predictions

    def execute_corrupt(
        self, array: int, images: np.ndarray, spec, verify: bool
    ) -> np.ndarray:
        """Classify with ``spec``'s seeded bit flips injected mid-stream.

        The corruption lands inside the instruction stream (weight tile,
        accumulator, or readout scores per the spec's target), so the
        served numerics are really corrupted — and ``verify`` arms the
        ABFT checksums that raise
        :class:`~repro.serve.integrity.DetectedCorruptionError` for any
        in-envelope flip.
        """
        return self._executor.run_batch(
            self._images(images), corruption=spec, verify_checksums=verify
        ).predictions

    def close(self) -> None:
        """Nothing to release."""


class PredictedExecutor:
    """Scheduling-only executor: returns -1 predictions instantly."""

    def __init__(self, image_size: int) -> None:
        self.image_size = image_size

    def execute(self, array: int, images: np.ndarray) -> np.ndarray:
        """Return placeholder predictions without computing."""
        return np.full(len(images), -1, dtype=np.int64)

    def close(self) -> None:
        """Nothing to release."""


def _worker_main(conn, shm_in_name, shm_out_name, max_batch, size, network):
    """Worker-process loop: recv batch size, classify shared images, ack."""
    executor = CompiledStreamExecutor(network)
    shm_in = shared_memory.SharedMemory(name=shm_in_name)
    shm_out = shared_memory.SharedMemory(name=shm_out_name)
    images = np.ndarray((max_batch, size, size), dtype=np.float64, buffer=shm_in.buf)
    out = np.ndarray((max_batch,), dtype=np.int64, buffer=shm_out.buf)
    try:
        while True:
            count = conn.recv()
            if count is None:
                break
            out[:count] = executor.execute(0, images[:count])
            conn.send(count)
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        shm_in.close()
        shm_out.close()
        conn.close()


class ProcessWorkerPool:
    """One worker process per array, fed through shared-memory buffers.

    Each array owns a pinned ``(max_batch, H, W)`` float64 image buffer
    and a ``(max_batch,)`` int64 prediction buffer in POSIX shared
    memory, plus a control pipe carrying only the batch size — the
    images themselves never cross the pipe.  A per-array lock serializes
    the runtime's worker threads onto each array's buffers (distinct
    arrays execute concurrently in their own processes).  ``network`` is
    a zoo name or a :class:`CapsNetConfig` (with its deterministic
    default weights): both pickle small, and every worker rebuilds the
    network bit-identically and serves it through a
    :class:`CompiledStreamExecutor`.

    A worker that dies mid-request surfaces as :class:`WorkerCrashError`
    naming the array and the process exit code, never a hang.
    """

    def __init__(self, network, arrays: int, max_batch: int) -> None:
        if arrays < 1:
            raise ConfigError("worker pool needs at least one array")
        if max_batch < 1:
            raise ConfigError("max_batch must be positive")
        if isinstance(network, CapsNetConfig):
            self.image_size = network.image_size
        elif isinstance(network, str):
            self.image_size = get_network(network).input_shape[-1]
        else:
            raise ConfigError(
                "worker processes need a zoo name or a CapsNetConfig,"
                f" got {type(network).__name__}"
            )
        self.network = network
        self.max_batch = max_batch
        size = self.image_size
        self._ctx = multiprocessing.get_context("spawn")
        self._locks = [threading.Lock() for _ in range(arrays)]
        self._shm_in: list[shared_memory.SharedMemory] = []
        self._shm_out: list[shared_memory.SharedMemory] = []
        self._images: list[np.ndarray] = []
        self._out: list[np.ndarray] = []
        self._conns = []
        self._procs = []
        self._closed = False
        try:
            for array in range(arrays):
                shm_in = shared_memory.SharedMemory(
                    create=True, size=max_batch * size * size * 8
                )
                shm_out = shared_memory.SharedMemory(create=True, size=max_batch * 8)
                self._shm_in.append(shm_in)
                self._shm_out.append(shm_out)
                self._images.append(
                    np.ndarray(
                        (max_batch, size, size), dtype=np.float64, buffer=shm_in.buf
                    )
                )
                self._out.append(
                    np.ndarray((max_batch,), dtype=np.int64, buffer=shm_out.buf)
                )
                parent, proc = self._spawn(array)
                self._conns.append(parent)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def _spawn(self, array: int):
        """Start one worker process over ``array``'s existing buffers."""
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child,
                self._shm_in[array].name,
                self._shm_out[array].name,
                self.max_batch,
                self.image_size,
                self.network,
            ),
            daemon=True,
        )
        proc.start()
        child.close()
        return parent, proc

    def execute(self, array: int, images: np.ndarray) -> np.ndarray:
        """Classify a batch on ``array``'s worker process."""
        count = len(images)
        if count > self.max_batch:
            raise ConfigError(
                f"batch of {count} exceeds the pool's max_batch={self.max_batch}"
            )
        with self._locks[array]:
            try:
                self._images[array][:count] = images
                self._conns[array].send(count)
                acked = self._conns[array].recv()
            except (EOFError, BrokenPipeError, OSError) as error:
                proc = self._procs[array]
                proc.join(timeout=1.0)
                raise WorkerCrashError(
                    f"worker for array {array} died mid-batch"
                    f" (exitcode {proc.exitcode})"
                ) from error
            if acked != count:
                raise WorkerCrashError(
                    f"worker for array {array} acked {acked} != {count}"
                )
            return self._out[array][:count].copy()

    def crash(self, array: int) -> None:
        """Kill one worker process (test hook for crash handling)."""
        self._procs[array].kill()
        self._procs[array].join(timeout=5.0)

    def respawn(self, array: int, probe_timeout_s: float = 60.0) -> None:
        """Replace ``array``'s worker and health-probe it before reuse.

        The shared-memory buffers are reused (only the process and its
        control pipe are replaced); a one-image round trip through the
        fresh worker's real engine proves it serves before the caller
        readmits the array.  Raises :class:`WorkerCrashError` if the
        probe fails or times out.
        """
        if self._closed:
            raise ConfigError("worker pool is closed")
        with self._locks[array]:
            proc = self._procs[array]
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
            self._conns[array].close()
            parent, proc = self._spawn(array)
            self._conns[array] = parent
            self._procs[array] = proc
            self._images[array][:1] = 0.0
            try:
                parent.send(1)
                if not parent.poll(probe_timeout_s):
                    raise WorkerCrashError(
                        f"respawned worker for array {array} failed its"
                        f" health probe ({probe_timeout_s:g}s timeout)"
                    )
                acked = parent.recv()
            except (EOFError, BrokenPipeError, OSError) as error:
                raise WorkerCrashError(
                    f"respawned worker for array {array} died during its"
                    f" health probe (exitcode {proc.exitcode})"
                ) from error
            if acked != 1:
                raise WorkerCrashError(
                    f"respawned worker for array {array} acked {acked} != 1"
                )

    def close(self) -> None:
        """Stop workers and release the shared-memory segments."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        # Views into the shared buffers must drop before unlinking.
        self._images.clear()
        self._out.clear()
        for shm in self._shm_in + self._shm_out:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
