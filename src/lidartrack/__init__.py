"""Camera pose tracking in LiDAR point-cloud maps.

Couples 2D-3D flow correspondences across adjacent frames: a synthetic
flow oracle stands in for the learned front-end, a PnP+RANSAC stage
solves per-frame poses, and a two-frame least-squares back-end refines
adjacent poses jointly under a cross-modal consistency energy.
"""

__version__ = "0.1.0"

from .geometry import (CameraIntrinsics, PerturbBounds, PoseSE3, perturb_pose,
                       pose_error, se3_exp, se3_log)
from .mapping import CropExtents, GlobalMap, crop_local, downsample
from .rendering import DepthMap, FlowField, gt_depth_flow, remove_occlusions, render_depth
from .flow import (EmptyMaskError, FlowNoiseModel, FlowTriplet, apply_noise,
                   consistency_residual, epe, oracle_depth_flow, oracle_flows,
                   sample_flow, warp)
from .pnp import (Correspondences, PnPResult, RansacConfig,
                  correspondences_from_flow, refine_pose, solve_pnp_ransac)
from .joint import EnergyConfig, JointResult, optimize_next_only, optimize_pair
from .synth import (SceneConfig, TrajectoryConfig, VoOracleConfig,
                    generate_scene, generate_trajectory, integrate_relatives,
                    vo_oracle)
from .evaluation import (MetricsReport, Trajectory, ate, build_report,
                         emit_report, load_trajectory, pose_error_stats, rpe,
                         save_trajectory, write_per_frame_csv)
from .tracker import (RunResult, Scenario, Tracker, TrackerConfig,
                      TrackerState, scenario_from_cloud)
