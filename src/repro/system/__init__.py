"""The FastMatch system architecture (Section 4): clocks (simulated and
wall), statistics engine, Scan baseline, the four-approach runner, and the
multi-query serving layer (sessions, the batch scheduler, and the
multi-tenant session registry)."""

from .clock import Clock, SimulatedClock, WallClock
from .fastmatch import (
    APPROACHES,
    DEFAULT_BLOCK_SIZE,
    PreparedQuery,
    make_engine,
    run_approach,
)
from .report import RunReport, ServingReport
from .scan import run_scan
from .scheduler import BatchScheduler, ScheduleResult
from .registry import SessionRegistry
from .session import CacheStats, MatchSession
from .stats_engine import StatsEngine
from .visualize import render_comparison, render_histogram, render_result

__all__ = [
    "render_comparison",
    "render_histogram",
    "render_result",
    "APPROACHES",
    "DEFAULT_BLOCK_SIZE",
    "PreparedQuery",
    "make_engine",
    "run_approach",
    "RunReport",
    "ServingReport",
    "run_scan",
    "Clock",
    "SimulatedClock",
    "WallClock",
    "StatsEngine",
    "BatchScheduler",
    "ScheduleResult",
    "CacheStats",
    "MatchSession",
    "SessionRegistry",
]
