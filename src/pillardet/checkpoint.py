"""Parameter checkpoints: flat float32 blobs plus a JSON manifest.

The manifest records tensor names, shapes, and byte offsets into a sibling
``.bin`` blob, along with the architecture needed to rebuild typed parameter
objects. Train-mode checkpoints hold the three-branch units; fused
checkpoints hold their single-conv equivalents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import (
    BackboneConfig,
    BackboneParams,
    NeckParams,
    RepPair,
    build_backbone,
    build_neck,
    fuse_backbone,
)
from .encoder import EncoderParams
from .errors import ValidationError
from .head import HEAD_GROUPS, build_head, split_channels
from .nn import BNParams, ConvParams, RepBlockParams
from .pillars import AUGMENTED_DIM

FORMAT = "pillardet-checkpoint"
VERSION = 1


@dataclass(frozen=True)
class ArchConfig:
    """Everything needed to rebuild typed parameters from named tensors."""

    encoder_dim: int
    stage_blocks: tuple[int, int, int, int]
    stage_channels: tuple[int, int, int, int]
    neck_channels: int
    n_classes: int
    in_dim: int = AUGMENTED_DIM
    bn_eps: float = 1e-5
    norm_eps: float = 1e-5

    def as_dict(self) -> dict:
        return {
            "encoder_dim": self.encoder_dim,
            "stage_blocks": list(self.stage_blocks),
            "stage_channels": list(self.stage_channels),
            "neck_channels": self.neck_channels,
            "n_classes": self.n_classes,
            "in_dim": self.in_dim,
            "bn_eps": self.bn_eps,
            "norm_eps": self.norm_eps,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArchConfig":
        try:
            return cls(
                encoder_dim=int(d["encoder_dim"]),
                stage_blocks=tuple(int(v) for v in d["stage_blocks"]),
                stage_channels=tuple(int(v) for v in d["stage_channels"]),
                neck_channels=int(d["neck_channels"]),
                n_classes=int(d["n_classes"]),
                in_dim=int(d["in_dim"]),
                bn_eps=float(d["bn_eps"]),
                norm_eps=float(d["norm_eps"]),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"bad architecture record in manifest: {e}") from e


@dataclass
class PipelineParams:
    encoder: EncoderParams
    backbone: BackboneParams
    neck: NeckParams
    head: ConvParams

    @property
    def mode(self) -> str:
        return self.backbone.mode


def new_params(arch: ArchConfig, mode: str = "random", seed: int = 0) -> PipelineParams:
    """Fresh train-mode parameters: seeded random draws or passthrough units."""
    if mode not in ("random", "identity"):
        raise ValidationError(f"unknown init mode {mode!r}")
    rng = np.random.default_rng(seed) if mode == "random" else None
    cfg = backbone_config(arch)
    encoder = (
        EncoderParams.random(np.random.default_rng(seed + 1), arch.encoder_dim, arch.in_dim)
        if rng is not None
        else _identity_encoder(arch)
    )
    ch = arch.stage_channels
    return PipelineParams(
        encoder=encoder,
        backbone=build_backbone(cfg, rng),
        neck=build_neck(ch[2], ch[3], arch.neck_channels, rng),
        head=build_head(arch.neck_channels, arch.n_classes, rng),
    )


def _identity_encoder(arch: ArchConfig) -> EncoderParams:
    if arch.encoder_dim == arch.in_dim:
        return EncoderParams.identity(arch.in_dim)
    eye = np.zeros((arch.encoder_dim, arch.in_dim))
    eye[np.arange(arch.encoder_dim), np.arange(arch.encoder_dim) % arch.in_dim] = 1.0
    base = EncoderParams.identity(arch.encoder_dim)
    return EncoderParams(
        weight=eye,
        bias=base.bias,
        norm_gamma=base.norm_gamma,
        norm_beta=base.norm_beta,
        norm_mean=base.norm_mean,
        norm_var=base.norm_var,
        score_weight=base.score_weight,
        score_bias=base.score_bias,
        norm_eps=base.norm_eps,
    )


def backbone_config(arch: ArchConfig, input_hw: tuple[int, int] = (64, 64)) -> BackboneConfig:
    return BackboneConfig(
        stage_blocks=arch.stage_blocks,
        stage_channels=arch.stage_channels,
        in_channels=arch.encoder_dim,
        input_hw=input_hw,
    )


def fuse_params(params: PipelineParams) -> PipelineParams:
    return PipelineParams(
        encoder=params.encoder,
        backbone=fuse_backbone(params.backbone),
        neck=params.neck,
        head=params.head,
    )


# --- named-tensor (de)serialization -------------------------------------------------

_ENCODER_FIELDS = (
    "weight", "bias", "norm_gamma", "norm_beta", "norm_mean", "norm_var", "score_weight", "score_bias",
)
_BN_FIELDS = ("gamma", "beta", "mean", "var")


def _flatten_unit(name: str, unit, out: dict) -> None:
    if isinstance(unit, RepBlockParams):
        out[f"{name}.conv3.kernel"] = unit.conv3.kernel
        out[f"{name}.conv3.bias"] = unit.conv3.bias
        out[f"{name}.conv1.kernel"] = unit.conv1.kernel
        out[f"{name}.conv1.bias"] = unit.conv1.bias
        for bn_name, bn in (("bn3", unit.bn3), ("bn1", unit.bn1), ("bn_id", unit.bn_id)):
            if bn is None:
                continue
            for f in _BN_FIELDS:
                out[f"{name}.{bn_name}.{f}"] = getattr(bn, f)
    else:
        out[f"{name}.kernel"] = unit.kernel
        out[f"{name}.bias"] = unit.bias


def params_to_tensors(params: PipelineParams) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for f in _ENCODER_FIELDS:
        out[f"encoder.{f}"] = getattr(params.encoder, f)
    _flatten_unit("backbone.stem", params.backbone.stem, out)
    for i, t in enumerate(params.backbone.transitions):
        _flatten_unit(f"backbone.t{i + 2}", t, out)
    for s, blocks in enumerate(params.backbone.stages):
        for b, pair in enumerate(blocks):
            _flatten_unit(f"backbone.s{s + 1}.b{b}.a", pair.a, out)
            _flatten_unit(f"backbone.s{s + 1}.b{b}.b", pair.b, out)
    for name in ("proj8", "proj16", "fuse"):
        _flatten_unit(f"neck.{name}", getattr(params.neck, name), out)
    kernels, biases = split_channels(params.head.kernel), split_channels(params.head.bias)
    for name, group, _ in HEAD_GROUPS:
        out[f"head.{group}.kernel"] = kernels[name]
        out[f"head.{group}.bias"] = biases[name]
    return out


class _TensorReader:
    """Hands out each named tensor once; what is never taken is left in ``tensors``."""

    def __init__(self, tensors: dict[str, np.ndarray], arch: ArchConfig):
        self.tensors = dict(tensors)
        self.arch = arch

    def take(self, name: str) -> np.ndarray:
        try:
            return self.tensors.pop(name)
        except KeyError:
            raise ValidationError(f"checkpoint is missing tensor {name!r}") from None

    def conv(self, name: str, stride: int) -> ConvParams:
        return ConvParams(self.take(f"{name}.kernel"), self.take(f"{name}.bias"), stride=stride)

    def bn(self, name: str) -> BNParams:
        return BNParams(*(self.take(f"{name}.{f}") for f in _BN_FIELDS), eps=self.arch.bn_eps)

    def unit(self, name: str, stride: int, mode: str):
        if mode == "fused":
            return self.conv(name, stride)
        bn_id = self.bn(f"{name}.bn_id") if f"{name}.bn_id.gamma" in self.tensors else None
        return RepBlockParams(
            conv3=self.conv(f"{name}.conv3", stride),
            bn3=self.bn(f"{name}.bn3"),
            conv1=self.conv(f"{name}.conv1", stride),
            bn1=self.bn(f"{name}.bn1"),
            bn_id=bn_id,
        )


def params_from_tensors(tensors: dict[str, np.ndarray], arch: ArchConfig, mode: str) -> PipelineParams:
    if mode not in ("train", "fused"):
        raise ValidationError(f"unknown checkpoint mode {mode!r}")
    r = _TensorReader(tensors, arch)
    encoder = EncoderParams(*(r.take(f"encoder.{f}") for f in _ENCODER_FIELDS), norm_eps=arch.norm_eps)
    stem = r.unit("backbone.stem", 1, mode)
    transitions = [r.unit(f"backbone.t{i + 2}", 2, mode) for i in range(3)]
    stages = [
        [
            RepPair(r.unit(f"backbone.s{s + 1}.b{b}.a", 1, mode), r.unit(f"backbone.s{s + 1}.b{b}.b", 1, mode))
            for b in range(arch.stage_blocks[s])
        ]
        for s in range(4)
    ]
    neck = NeckParams(
        proj8=r.conv("neck.proj8", 1), proj16=r.conv("neck.proj16", 1), fuse=r.conv("neck.fuse", 1)
    )
    # the groups are concatenated into one conv, so a group of the wrong width would
    # silently shift channels into its neighbours
    groups = [r.conv(f"head.{group}", 1) for _, group, _ in HEAD_GROUPS]
    for (_, group, width), g in zip(HEAD_GROUPS, groups):
        want = (width or arch.n_classes, arch.neck_channels, 1, 1)
        if g.kernel.shape != want:
            raise ValidationError(f"checkpoint head group {group!r} has kernel {g.kernel.shape}, expected {want}")
    head = ConvParams(np.concatenate([g.kernel for g in groups]), np.concatenate([g.bias for g in groups]))
    if r.tensors:
        raise ValidationError(f"checkpoint has tensor {min(r.tensors)!r}, which its architecture does not use")
    return PipelineParams(encoder=encoder, backbone=BackboneParams(stem, transitions, stages), neck=neck, head=head)


# --- blob + manifest container -------------------------------------------------------


def blob_path(manifest_path) -> Path:
    p = Path(manifest_path)
    return p.with_suffix(".bin") if p.suffix == ".json" else Path(str(p) + ".bin")


def save_tensors(manifest_path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    manifest_path = Path(manifest_path)
    bp = blob_path(manifest_path)
    entries = []
    offset = 0
    chunks = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype="<f4"))
        chunks.append(arr.tobytes())
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset, "dtype": "<f4"})
        offset += len(chunks[-1])
    bp.write_bytes(b"".join(chunks))
    manifest = {
        "format": FORMAT,
        "version": VERSION,
        "blob": bp.name,
        "tensors": entries,
        "meta": meta,
    }
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def load_tensors(manifest_path) -> tuple[dict[str, np.ndarray], dict]:
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as e:
        raise ValidationError(f"cannot read checkpoint manifest {manifest_path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValidationError(f"{manifest_path}: malformed manifest: {e}") from e
    if manifest.get("format") != FORMAT or int(manifest.get("version", -1)) != VERSION:
        raise ValidationError(f"{manifest_path}: not a {FORMAT} v{VERSION} manifest")
    try:
        raw = (manifest_path.parent / manifest["blob"]).read_bytes()
    except (OSError, KeyError) as e:
        raise ValidationError(f"cannot read checkpoint blob for {manifest_path}: {e}") from e
    tensors: dict[str, np.ndarray] = {}
    try:
        for e in manifest["tensors"]:
            shape = tuple(int(s) for s in e["shape"])
            count = int(np.prod(shape)) if shape else 1
            start = int(e["offset"])
            arr = np.frombuffer(raw, dtype=e["dtype"], count=count, offset=start).reshape(shape)
            tensors[str(e["name"])] = arr
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"{manifest_path}: malformed tensor table: {e}") from e
    return tensors, dict(manifest.get("meta", {}))


def save_checkpoint(path, params: PipelineParams, arch: ArchConfig) -> None:
    meta = {"mode": params.mode, "arch": arch.as_dict()}
    save_tensors(path, params_to_tensors(params), meta)


def load_checkpoint(path) -> tuple[PipelineParams, ArchConfig, str]:
    tensors, meta = load_tensors(path)
    try:
        mode = str(meta["mode"])
        arch = ArchConfig.from_dict(meta["arch"])
    except KeyError as e:
        raise ValidationError(f"{path}: manifest meta is missing {e}") from e
    return params_from_tensors(tensors, arch, mode), arch, mode
