"""Host <-> device transfer modeling (``cudaMemcpyAsync`` analogues).

The paper reports kernel-only times (its batches live on the device), but a
production library must account for staging: applications like ReactEval
upload fresh Jacobian batches every Newton iteration.  Transfers enqueue on
a stream like kernels do — in order, each costing a fixed DMA-setup latency
plus bytes over the interconnect's sustained bandwidth — so end-to-end
pipelines can be timed with and without staging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DeviceError
from .device import DeviceSpec
from .memory import DeviceBuffer, memory_pool
from .stream import Stream

__all__ = ["TransferRecord", "memcpy_h2d", "memcpy_d2h",
           "transfer_time", "batch_upload_time", "stage_chunk"]


@dataclass(frozen=True)
class TransferRecord:
    """One completed host<->device copy; duck-typed like a launch record
    (``kernel_name`` / ``grid`` / ``time``) so traces mix both."""

    kernel_name: str
    nbytes: int
    time: float
    grid: int = 1
    # Fault-injection events (repro.gpusim.faults.FaultEvent) that struck
    # this copy — in-flight payload corruption stays trace-attributed, the
    # same way lane corruption rides a LaunchRecord.
    faults: tuple = ()

    @property
    def bandwidth(self) -> float:
        """Achieved bandwidth of this copy, bytes/s."""
        return self.nbytes / self.time if self.time > 0 else 0.0


def transfer_time(device: DeviceSpec, nbytes: int, *,
                  direction: str = "h2d") -> float:
    """Modeled seconds for one copy of ``nbytes`` in the given direction."""
    if direction == "h2d":
        bw = device.h2d_bandwidth
    elif direction == "d2h":
        bw = device.d2h_bandwidth
    else:
        raise DeviceError(f"unknown transfer direction {direction!r}")
    return device.transfer_latency + nbytes / bw


def memcpy_h2d(device: DeviceSpec, buf: DeviceBuffer, host: np.ndarray, *,
               stream: Stream | None = None) -> TransferRecord:
    """Copy host data into a device buffer, timed on the stream.

    The copied bytes are charged to the buffer's traffic counter (inside
    :meth:`~repro.gpusim.memory.DeviceBuffer.upload`) and to the device
    pool's counter, so per-device interconnect traffic stays reported.
    """
    from .faults import active_injector

    buf.upload(host)
    nbytes = int(np.asarray(host).nbytes)
    pool = memory_pool(device)
    if buf.traffic is not pool.traffic:
        pool.traffic.write(nbytes)
    injector = active_injector(device)
    faults = ()
    if injector is not None:
        # In-flight corruption lands on the device-side copy (the host
        # array is untouched — exactly what a flipped bit on the wire
        # produces), attributed on this record.
        faults = injector.on_transfer(device, "memcpy_h2d", buf.array)
    rec = TransferRecord(
        kernel_name="memcpy_h2d",
        nbytes=nbytes,
        time=transfer_time(device, nbytes, direction="h2d"),
        faults=faults)
    if stream is not None:
        stream.record(rec)
    return rec


def memcpy_d2h(device: DeviceSpec, buf: DeviceBuffer, *,
               stream: Stream | None = None,
               out: np.ndarray | None = None) -> tuple[np.ndarray,
                                                       TransferRecord]:
    """Copy a device buffer back to the host, timed on the stream.

    Traffic is charged like :func:`memcpy_h2d`, on the read side.
    """
    from .faults import active_injector

    data = buf.download()
    if out is not None:
        out[...] = data
        data = out
    pool = memory_pool(device)
    if buf.traffic is not pool.traffic:
        pool.traffic.read(int(data.nbytes))
    injector = active_injector(device)
    faults = ()
    if injector is not None:
        # Corruption strikes the downloaded host copy; the device-side
        # buffer stays clean, so a retry re-downloads good data.
        faults = injector.on_transfer(device, "memcpy_d2h", data)
    rec = TransferRecord(
        kernel_name="memcpy_d2h",
        nbytes=int(data.nbytes),
        time=transfer_time(device, data.nbytes, direction="d2h"),
        faults=faults)
    if stream is not None:
        stream.record(rec)
    return data, rec


def stage_chunk(device: DeviceSpec, nbytes: int, *, direction: str = "h2d",
                stream: Stream | None = None,
                label: str = "chunk") -> TransferRecord:
    """Model one chunk-staging copy, charged to traffic *and* a stream.

    The chunk executor (:mod:`repro.core.pipeline`, which every governed
    call runs through) stages every chunk through this helper so the
    copy lands on the device pool's :class:`TrafficCounter` and — when
    a stream is given — on that stream's timeline.  Keeping both charges
    in one place is what makes per-stream makespans and traffic totals
    agree: the bytes a copy stream's records carry are exactly the bytes
    the counter accumulated.
    """
    pool = memory_pool(device)
    if direction == "h2d":
        pool.traffic.write(nbytes)
    else:
        pool.traffic.read(nbytes)
    rec = TransferRecord(
        kernel_name=f"{label}_{direction}", nbytes=int(nbytes),
        time=transfer_time(device, nbytes, direction=direction))
    if stream is not None:
        stream.record(rec)
    return rec


def batch_upload_time(device: DeviceSpec, *, batch: int, n: int, kl: int,
                      ku: int, nrhs: int = 0,
                      itemsize: int = 8) -> float:
    """Modeled time to stage one band batch (+optional RHS) onto the device.

    A single contiguous copy per operand — the strided-batch layout the
    drivers favour — so the cost is two latencies plus the payload.
    """
    ldab = 2 * kl + ku + 1
    t = transfer_time(device, batch * ldab * n * itemsize)
    if nrhs > 0:
        t += transfer_time(device, batch * n * nrhs * itemsize)
    return t
