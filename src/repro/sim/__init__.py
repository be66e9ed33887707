"""Discrete-event simulation substrate (clock, tasks, CPU, trace, RNG)."""

from .core import Simulator, Timer
from .cpu import Cpu, CpuMeter
from .rand import RngRegistry, derive_seed
from .tasks import Promise, Task, all_of, sleep, spawn
from .trace import Trace

__all__ = [
    "Simulator",
    "Timer",
    "Cpu",
    "CpuMeter",
    "RngRegistry",
    "derive_seed",
    "Promise",
    "Task",
    "all_of",
    "sleep",
    "spawn",
    "Trace",
]
