"""Pillar-based BEV 3D detection stack with desk-scale verification hooks."""

from .errors import InvariantViolation, PillarDetError, ValidationError
from .geometry import Box3D, normalize_yaw, points_in_box, rotated_iou_bev
from .pointcloud import (
    AugmentSpec,
    PointCloud,
    Range3D,
    SceneSpec,
    augment_global,
    crop_to_range,
    generate_scene,
    load_cloud,
    save_cloud,
)
from .pillars import BEVCanvas, GridConfig, Pillar, assign_pillars, augment_points, scatter
from .encoder import EncoderGrads, EncoderParams, PillarFeature, encode_pillar, encoder_backward
from .nn import (
    BNParams,
    ConvParams,
    RepBlockParams,
    batchnorm,
    bn_fold,
    conv2d,
    fuse_rep_block,
    identity_to_3x3,
    pad_1x1_to_3x3,
    relu,
    rep_forward,
)
from .backbone import (
    BackboneConfig,
    BackboneParams,
    NeckParams,
    backbone_forward,
    count_macs,
    count_params,
    fuse_backbone,
    neck_fuse,
)
from .head import Detection, HeadOutput, decode, nms, rectify_detections, rectify_score
from .losses import (
    LossWeights,
    Targets,
    diou_loss,
    focal_loss,
    gaussian_radius,
    iou_branch_loss,
    reg_l1_loss,
    render_gaussian_targets,
    total_loss,
)
from .checkpoint import ArchConfig, PipelineParams, fuse_params, load_checkpoint, new_params, save_checkpoint
from .profiles import DESK, NUSCENES, WAYMO, Profile, load_profile
from .pipeline import fusion_discrepancy, head_output_from_targets, run_detect

__version__ = "0.1.0"
