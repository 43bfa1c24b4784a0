"""Core scheduling library: the paper's models, algorithms and schedules.

This subpackage implements everything in Sections 3 and 4 of the paper:

* the platform/application model (:mod:`repro.core.instance`),
* the interval and milestone machinery (:mod:`repro.core.intervals`,
  :mod:`repro.core.milestones`, :mod:`repro.core.affine`),
* makespan minimisation — Theorem 1 (:mod:`repro.core.makespan`),
* deadline feasibility — Lemma 1 (:mod:`repro.core.deadline`),
* max weighted flow, divisible — Theorem 2 (:mod:`repro.core.maxflow`),
* max weighted flow, preemptive — Section 4.4 (``preemptive=True`` on the
  same entry points, plus :mod:`repro.core.lawler_labetoulle`),
* schedule objects with metrics and validation (:mod:`repro.core.schedule`).
"""

from .affine import Affine
from .deadline import DeadlineFeasibility, check_deadline_feasibility
from .gantt import render_gantt
from .instance import Instance
from .intervals import TimeInterval, build_affine_intervals, build_constant_intervals
from .job import Job, sort_by_release_date
from .lower_bounds import max_weighted_flow_lower_bound
from .machine import Machine, Platform
from .makespan import MakespanResult, minimize_makespan
from .maxflow import (
    FeasibilityProbe,
    MaxWeightedFlowResult,
    minimize_max_stretch,
    minimize_max_weighted_flow,
    minimize_max_weighted_flow_bisection,
)
from .milestones import compute_milestones, deadline_function
from .replanning import ReplanProbe, remaining_subinstance
from .schedule import Schedule, ScheduleMetrics, SchedulePiece

__all__ = [
    "Affine",
    "DeadlineFeasibility",
    "FeasibilityProbe",
    "Instance",
    "Job",
    "Machine",
    "MakespanResult",
    "MaxWeightedFlowResult",
    "Platform",
    "ReplanProbe",
    "Schedule",
    "ScheduleMetrics",
    "SchedulePiece",
    "TimeInterval",
    "build_affine_intervals",
    "build_constant_intervals",
    "check_deadline_feasibility",
    "compute_milestones",
    "deadline_function",
    "max_weighted_flow_lower_bound",
    "minimize_makespan",
    "minimize_max_stretch",
    "minimize_max_weighted_flow",
    "minimize_max_weighted_flow_bisection",
    "remaining_subinstance",
    "render_gantt",
    "sort_by_release_date",
]
