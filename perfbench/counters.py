"""User-mode CPU cycle and instruction counters of this process (Linux perf events).

Wall time on a shared host moves with the clock the host gives the core; a
cycle count does not, and an instruction count barely moves at all.  The
counters are opened once per process with ``perf_event_open`` and read, not
stopped, at each phase boundary.  They count user-mode work of the calling
thread only (``exclude_kernel``), which is what ``perf_event_paranoid`` 2
allows an unprivileged process to count.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct
from typing import Tuple

#: ``perf_event_open`` syscall numbers by machine.
_SYSCALL = {"x86_64": 298, "aarch64": 241}
_PERF_TYPE_HARDWARE = 0
_CPU_CYCLES = 0
_INSTRUCTIONS = 1
#: ``perf_event_attr`` flag bits.
_EXCLUDE_KERNEL = 1 << 5
_EXCLUDE_HV = 1 << 6


class CountersUnavailable(RuntimeError):
    """The kernel or the machine does not let this process count cycles."""


class _Attr(ctypes.Structure):
    """``struct perf_event_attr`` up to ``sample_max_stack`` (112 bytes)."""

    _fields_ = [
        ("type", ctypes.c_uint32),
        ("size", ctypes.c_uint32),
        ("config", ctypes.c_uint64),
        ("sample_period", ctypes.c_uint64),
        ("sample_type", ctypes.c_uint64),
        ("read_format", ctypes.c_uint64),
        ("flags", ctypes.c_uint64),
        ("wakeup_events", ctypes.c_uint32),
        ("bp_type", ctypes.c_uint32),
        ("config1", ctypes.c_uint64),
        ("config2", ctypes.c_uint64),
        ("branch_sample_type", ctypes.c_uint64),
        ("sample_regs_user", ctypes.c_uint64),
        ("sample_stack_user", ctypes.c_uint32),
        ("clockid", ctypes.c_int32),
        ("sample_regs_intr", ctypes.c_uint64),
        ("aux_watermark", ctypes.c_uint32),
        ("sample_max_stack", ctypes.c_uint16),
        ("reserved", ctypes.c_uint16),
    ]


def _open(config: int) -> int:
    number = _SYSCALL.get(platform.machine())
    if number is None:
        raise CountersUnavailable(f"no perf_event_open syscall number for {platform.machine()}")
    attr = _Attr(type=_PERF_TYPE_HARDWARE, size=ctypes.sizeof(_Attr), config=config)
    attr.flags = _EXCLUDE_KERNEL | _EXCLUDE_HV
    libc = ctypes.CDLL(None, use_errno=True)
    fd = libc.syscall(number, ctypes.byref(attr), 0, -1, -1, 0)
    if fd < 0:
        errno = ctypes.get_errno()
        raise CountersUnavailable(f"perf_event_open: {os.strerror(errno)}")
    return fd


class CpuCounters:
    """Cycles and instructions this thread has run in user mode since opening."""

    def __init__(self) -> None:
        self._fds = (_open(_CPU_CYCLES), _open(_INSTRUCTIONS))

    def read(self) -> Tuple[int, int]:
        """``(cycles, instructions)`` counted so far."""
        cycles, instructions = (struct.unpack("q", os.read(fd, 8))[0] for fd in self._fds)
        if cycles <= 0 or instructions <= 0:
            raise CountersUnavailable("the hardware counters do not count on this machine")
        return cycles, instructions

    def close(self) -> None:
        for fd in self._fds:
            os.close(fd)
