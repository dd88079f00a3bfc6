"""Geometric spatiotemporal scene-completion toolkit.

Pose forecasting, depth-and-pose warping to pseudo-future frames, voxel
visibility fusion, and the accompanying loss/metric kernels, all verified
against a built-in synthetic scene simulator with exact ground truth.
"""

from .geom import (
    CameraIntrinsics,
    Se3Pose,
    compose,
    inverse,
    relative_pose,
    se3_exp,
    se3_log,
)
from .forecast import PoseSequence, forecast_next, pose_mse
from .warp import (
    FrameBundle,
    WarpResult,
    compose_pseudo_future,
    fill_refiner,
    forward_splat,
    identity_refiner,
    reprojection_flow,
)
from .fusion import (
    BlockVisibility,
    FusedVolume,
    SceneGrid,
    SceneRange,
    downsample_blocks,
    fuse_pipeline,
    resample_to_range,
    sample_fuse,
    visibility,
)
from .losses import (
    LabelVolume,
    LossWeights,
    ProbVolume,
    l1_field,
    scal_geo,
    scal_sem,
    ssim_loss,
    total_ssc_loss,
    total_synth_loss,
    weighted_ce,
)
from .metrics import (
    ConfusionMatrix,
    confusion,
    coverage,
    iou_geometry,
    majority_complete,
    miou_semantic,
)
from .synth import (
    SceneSpec,
    TrajectorySpec,
    build_scene,
    canonical_camera_pose,
    desk_intrinsics,
    extract_features,
    make_trajectory,
    render_frame,
)

__version__ = "0.1.0"
