"""Cross-cutting helpers: timing and memory accounting."""

from repro.utils.timing import Timer, time_callable
from repro.utils.memory import human_bytes, index_size_report

__all__ = [
    "Timer",
    "time_callable",
    "human_bytes",
    "index_size_report",
]
