"""Package-wide default constants.

The scene-box, voxel, visibility, and weighting defaults follow the standard
outdoor SSC benchmark configuration; the desk-scale values are the built-in
synthetic testbed that keeps full verification runs in seconds.
"""

# voxel label of unknown/invalid ground truth, ignored by losses and metrics
INVALID_LABEL = 255

# visibility band half-width in meters
THETA_D = 0.5

# stride in frames between consecutive temporal inputs
FRAME_INTERVAL = 5

# number of past frames fused alongside the current one
PAST_FRAMES = 4

# weight of the pose MSE term in the synthesis loss; all other terms weigh 1
POSE_LOSS_WEIGHT = 0.1

# depth cap in meters; invalid depth is encoded as exactly 0
D_MAX = 80.0

# full-scale scene box: 51.2 m x 51.2 m x 6.4 m at 0.2 m voxels -> 256x256x32
SCENE_EXTENTS = (51.2, 51.2, 6.4)
VOXEL_SIZE = 0.2

# vertical drop from the camera to the scene-box floor
GROUND_CLEARANCE = 2.0

# voxels grouped per block edge for visibility downsampling
BLOCK_EDGE = 4

# desk-scale synthetic testbed: same box at 0.4 m voxels -> 128x128x16
DESK_VOXEL_SIZE = 0.4
DESK_SCENE_DIMS = (128, 128, 16)
DESK_IMAGE_WIDTH = 128
DESK_IMAGE_HEIGHT = 96
DESK_FOCAL = 64.0

# standard corridor demo: forward speed (m/frame) and scattered box count;
# chosen so the pseudo-future coverage gain is well clear of its threshold
DEMO_SPEED = 2.0
DEMO_BOX_COUNT = 20
