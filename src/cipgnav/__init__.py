"""cipgnav: cascade iteratively-preconditioned-gradient state estimation
for IMU/DVL/AHRS inertial navigation, with EKF and InEKF baselines,
a synthetic scenario generator, dataset adapters, and trajectory metrics.
"""

from .errors import (
    AlignmentError,
    CipgnavError,
    DegenerateQuaternionError,
    DivergenceError,
    NumericalError,
    ParseError,
    SpecError,
    StreamOrderError,
    SyncGapError,
)
from .preintegration import GravityModel, ImuBiases, NavState, preintegrate_burst
from .ipg import IpgParams, IpgStepResult, IpgWindow, WindowModel, ipg_step, slide_window
from .cascade import CascadeConfig, CascadeState, cascade_step, run_cascade
from .baselines import FilterConfig, run_ekf, run_inekf
from .sensors import (
    AhrsSample,
    DvlSample,
    GroundTruthSample,
    ImuSample,
    SyncedEpoch,
    load_stream,
    save_stream,
    synchronize,
)
from .trajectory import TrajectoryPoint, read_trajectory, write_trajectory
from .sim import NoiseSpec, ScenarioSpec, SyntheticRun, generate
from .metrics import MetricsConfig, TrajectoryReport, evaluate_trajectories
from .adapters import ConversionLog, adapt

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CipgnavError",
    "DegenerateQuaternionError",
    "ParseError",
    "StreamOrderError",
    "SyncGapError",
    "DivergenceError",
    "AlignmentError",
    "SpecError",
    "NumericalError",
    "GravityModel",
    "ImuBiases",
    "NavState",
    "preintegrate_burst",
    "IpgParams",
    "IpgWindow",
    "IpgStepResult",
    "WindowModel",
    "ipg_step",
    "slide_window",
    "CascadeConfig",
    "CascadeState",
    "cascade_step",
    "run_cascade",
    "FilterConfig",
    "run_ekf",
    "run_inekf",
    "ImuSample",
    "DvlSample",
    "AhrsSample",
    "GroundTruthSample",
    "SyncedEpoch",
    "load_stream",
    "save_stream",
    "synchronize",
    "TrajectoryPoint",
    "read_trajectory",
    "write_trajectory",
    "NoiseSpec",
    "ScenarioSpec",
    "SyntheticRun",
    "generate",
    "MetricsConfig",
    "TrajectoryReport",
    "evaluate_trajectories",
    "ConversionLog",
    "adapt",
]
