"""Small measurement helpers shared by the workloads: order statistics
and process memory / I/O readings from /proc."""

from __future__ import annotations

import resource
import statistics


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bytes_written() -> int:
    """Bytes this process has passed to write-type system calls so far
    (``wchar`` of /proc/self/io; 0 where the kernel does not expose it)."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
