"""Geometric spatiotemporal scene-completion toolkit.

Pose forecasting, depth-and-pose warping to pseudo-future frames, voxel
visibility fusion, and the accompanying loss/metric kernels, all verified
against a built-in synthetic scene simulator with exact ground truth.
"""

__version__ = "0.1.0"
