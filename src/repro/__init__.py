"""repro — reproduction of Legrand, Su & Vivien (IPPS 2005).

Off-line scheduling of divisible requests on an heterogeneous collection of
databanks: polynomial-time minimisation of the maximum weighted flow on
unrelated machines, in the divisible-load and preemptive models, plus the
GriPPS application study and the on-line simulation the paper's conclusion
refers to.

Subpackages
-----------
``repro.core``
    Instance model, LP formulations, milestone search, schedules (Sections 3–4).
    The solvers take ``preemptive=True`` for Section 4.4's preemptive model.
``repro.lp``
    The LP matrix form and its two solvers: SciPy/HiGHS and an in-house
    sparse revised simplex with warm re-solves.
``repro.gripps``
    Synthetic GriPPS application: protein databanks, motifs, scanning engine
    and the calibrated cost model behind Figure 1.
``repro.simulation``
    Discrete-event simulator for on-line scheduling experiments.
``repro.heuristics``
    On-line policies: MCT, FIFO, SPT, SRPT, EDF, round-robin and the on-line
    adaptation of the off-line algorithm.
``repro.workload``
    Random instance generators, named scenarios and trace I/O.
``repro.analysis``
    Linear regression, statistics, ASCII tables and plots used by the benches.
``repro.store``
    Persistent experiment store: content-addressed campaign results,
    resumable sweeps and cross-run regression diffs.
"""

from .core import (
    Instance,
    Job,
    Machine,
    MakespanResult,
    MaxWeightedFlowResult,
    Platform,
    Schedule,
    SchedulePiece,
    check_deadline_feasibility,
    compute_milestones,
    minimize_makespan,
    minimize_max_stretch,
    minimize_max_weighted_flow,
)
from .exceptions import (
    InfeasibleProblemError,
    InvalidInstanceError,
    InvalidScheduleError,
    ReproError,
    SimulationError,
    SolverError,
    UnboundedProblemError,
    WorkloadError,
)

__version__ = "1.0.0"

__all__ = [
    "Instance",
    "Job",
    "Machine",
    "MakespanResult",
    "MaxWeightedFlowResult",
    "Platform",
    "Schedule",
    "SchedulePiece",
    "check_deadline_feasibility",
    "compute_milestones",
    "minimize_makespan",
    "minimize_max_stretch",
    "minimize_max_weighted_flow",
    "InfeasibleProblemError",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "ReproError",
    "SimulationError",
    "SolverError",
    "UnboundedProblemError",
    "WorkloadError",
    "__version__",
]
