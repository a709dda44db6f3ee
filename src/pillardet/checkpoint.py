"""Parameter checkpoints: flat float32 blobs plus a JSON manifest.

The manifest records tensor names, shapes, and byte offsets into a sibling
``.bin`` blob, along with the architecture that shapes every tensor. Train-mode
checkpoints hold the three-branch units; fused checkpoints hold their
single-conv equivalents.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .backbone import (
    BackboneConfig,
    BackboneParams,
    NeckParams,
    build_backbone,
    build_neck,
    fuse_backbone,
    make_backbone,
    neck_convs,
)
from .encoder import EncoderParams
from .errors import ValidationError, check_record, read_json
from .head import HEAD_GROUPS, build_head, split_channels
from .nn import BN_EPS, BNParams, ConvParams, RepBlockParams, has_identity
from .pillars import AUGMENTED_DIM

FORMAT = "pillardet-checkpoint"
VERSION = 1
_DTYPE = "<f4"  # every tensor, as save_tensors writes it

# the JSON type of each key of a manifest, of one tensor table entry, of its meta and of meta's arch
_HEADER = {"format": str, "version": int, "blob": str, "tensors": list, "meta": dict}
_ENTRY = {"name": str, "shape": list[int], "offset": int, "dtype": str}
_META = {"mode": str, "arch": dict}
_ARCH_KEYS = {"encoder_dim": int, "stage_blocks": list[int], "stage_channels": list[int], "neck_channels": int,
              "n_classes": int}
# arch keys that older manifests wrote, each only ever with the value every checkpoint now assumes
_FIXED_ARCH_KEYS = {"in_dim": AUGMENTED_DIM, "bn_eps": BN_EPS, "norm_eps": BN_EPS}


@dataclass(frozen=True)
class ArchConfig:
    """The shape of the network: every checkpoint tensor is read at the shape this gives it."""

    encoder_dim: int
    stage_blocks: tuple[int, int, int, int]
    stage_channels: tuple[int, int, int, int]
    neck_channels: int
    n_classes: int

    def __post_init__(self):
        backbone_config(self)  # the backbone checks the blocks, the widths and the encoder width
        if self.neck_channels < 1 or self.n_classes < 1:
            raise ValidationError("neck_channels and n_classes must be >= 1")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "ArchConfig":
        d = check_record(where, d, _ARCH_KEYS, fixed=_FIXED_ARCH_KEYS)
        try:
            return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in d.items()})
        except ValidationError as e:
            raise ValidationError(f"{where}: {e}") from e


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
    encoder = (
        EncoderParams.random(np.random.default_rng(seed + 1), arch.encoder_dim)
        if rng is not None
        else EncoderParams.identity(arch.encoder_dim)
    )
    ch = arch.stage_channels
    return PipelineParams(
        encoder=encoder,
        backbone=build_backbone(backbone_config(arch), rng),
        neck=build_neck(ch[2], ch[3], arch.neck_channels, rng),
        head=build_head(arch.neck_channels, arch.n_classes, rng),
    )


def backbone_config(arch: ArchConfig) -> BackboneConfig:
    return BackboneConfig(
        stage_blocks=arch.stage_blocks, stage_channels=arch.stage_channels, in_channels=arch.encoder_dim
    )


def fuse_params(params: PipelineParams) -> PipelineParams:
    return replace(params, backbone=fuse_backbone(params.backbone))


# --- named-tensor (de)serialization -------------------------------------------------

_BN_FIELDS = ("gamma", "beta", "mean", "var")


def _flatten_unit(name: str, unit, out: dict) -> None:
    if isinstance(unit, RepBlockParams):
        out[f"{name}.conv3.kernel"] = unit.conv3.kernel
        out[f"{name}.conv3.bias"] = unit.conv3.bias
        out[f"{name}.conv1.kernel"] = unit.conv1.kernel
        out[f"{name}.conv1.bias"] = unit.conv1.bias
        for bn_name, bn in (("bn3", unit.bn3), ("bn1", unit.bn1), ("bn_id", unit.bn_id)):
            if bn is not None:
                out.update({f"{name}.{bn_name}.{f}": getattr(bn, f) for f in _BN_FIELDS})
    else:
        out[f"{name}.kernel"] = unit.kernel
        out[f"{name}.bias"] = unit.bias


def params_to_tensors(params: PipelineParams) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for f in ("weight", "bias", "score_weight", "score_bias"):
        out[f"encoder.{f}"] = getattr(params.encoder, f)
    out.update({f"encoder.norm_{f}": getattr(params.encoder.norm, f) for f in _BN_FIELDS})
    for name, unit in params.backbone.named_units():
        _flatten_unit(f"backbone.{name}", unit, out)
    for name in ("proj8", "proj16", "fuse"):
        _flatten_unit(f"neck.{name}", getattr(params.neck, name), out)
    kernels, biases = split_channels(params.head.kernel), split_channels(params.head.bias)
    for name, group, _ in HEAD_GROUPS:
        out[f"head.{group}.kernel"] = kernels[name]
        out[f"head.{group}.bias"] = biases[name]
    return out


class _TensorReader:
    """Hands out each named tensor once, at the shape the architecture gives it;
    what is never taken is left in ``tensors``."""

    def __init__(self, tensors: dict[str, np.ndarray], mode: str):
        self.tensors = dict(tensors)
        self.mode = mode

    def take(self, name: str, shape: tuple[int, ...], what: str = "tensor") -> np.ndarray:
        try:
            arr = self.tensors.pop(name)
        except KeyError:
            raise ValidationError(f"checkpoint is missing tensor {name!r}") from None
        if arr.shape != shape:
            raise ValidationError(f"checkpoint {what} {name!r} has shape {arr.shape}, expected {shape}")
        return arr

    def conv(self, name: str, c_in: int, c_out: int, k: int, stride: int = 1, what: str = "tensor") -> ConvParams:
        kernel = self.take(f"{name}.kernel", (c_out, c_in, k, k), what)
        return ConvParams(kernel, self.take(f"{name}.bias", (c_out,), what), stride=stride)

    def bn(self, prefix: str, channels: int) -> BNParams:
        return BNParams(*(self.take(prefix + f, (channels,)) for f in _BN_FIELDS))

    def unit(self, name: str, c_in: int, c_out: int, stride: int):
        if self.mode == "fused":
            return self.conv(name, c_in, c_out, 3, stride)
        return RepBlockParams(
            conv3=self.conv(f"{name}.conv3", c_in, c_out, 3, stride),
            bn3=self.bn(f"{name}.bn3.", c_out),
            conv1=self.conv(f"{name}.conv1", c_in, c_out, 1, stride),
            bn1=self.bn(f"{name}.bn1.", c_out),
            bn_id=self.bn(f"{name}.bn_id.", c_out) if has_identity(c_in, c_out, stride) else None,
        )


def params_from_tensors(tensors: dict[str, np.ndarray], arch: ArchConfig, mode: str) -> PipelineParams:
    if mode not in ("train", "fused"):
        raise ValidationError(f"unknown checkpoint mode {mode!r}")
    r = _TensorReader(tensors, mode)
    d = arch.encoder_dim
    encoder = EncoderParams(
        r.take("encoder.weight", (d, AUGMENTED_DIM)), r.take("encoder.bias", (d,)), r.bn("encoder.norm_", d),
        r.take("encoder.score_weight", (d, d)), r.take("encoder.score_bias", (d,)),
    )
    backbone = make_backbone(backbone_config(arch), lambda name, *io: r.unit(f"backbone.{name}", *io))
    ch = arch.stage_channels
    neck_specs = neck_convs(ch[2], ch[3], arch.neck_channels)
    neck = NeckParams(**{name: r.conv(f"neck.{name}", *spec) for name, spec in neck_specs.items()})
    groups = [
        r.conv(f"head.{group}", arch.neck_channels, width or arch.n_classes, 1, what=f"head group {group!r} tensor")
        for _, group, width in HEAD_GROUPS
    ]
    head = ConvParams(np.concatenate([g.kernel for g in groups]), np.concatenate([g.bias for g in groups]))
    if r.tensors:
        raise ValidationError(f"checkpoint has tensor {min(r.tensors)!r}, which its architecture does not use")
    return PipelineParams(encoder=encoder, backbone=backbone, neck=neck, head=head)


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
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=_DTYPE))
        chunks.append(arr.tobytes())
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset, "dtype": _DTYPE})
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
    """The tensors and meta of a manifest in the layout ``save_tensors`` writes: float32
    tensors packed back to back from offset 0, with the blob ending where the table ends."""
    manifest_path = Path(manifest_path)
    header = check_record(f"{manifest_path}: manifest", read_json(manifest_path, "checkpoint manifest"), _HEADER)
    if (header["format"], header["version"]) != (FORMAT, VERSION):
        raise ValidationError(f"{manifest_path}: manifest format and version must be {FORMAT!r} and {VERSION}")
    layout, end = {}, 0  # each tensor's first element and shape, by name
    for i, entry in enumerate(header["tensors"]):
        where = f"{manifest_path}: tensor {i}"
        check_record(where, entry, _ENTRY)
        name, shape = entry["name"], entry["shape"]
        if entry["dtype"] != _DTYPE:
            raise ValidationError(f"{where} dtype is {entry['dtype']!r}, but only {_DTYPE!r} is supported")
        if min(shape, default=0) < 0:
            raise ValidationError(f"{where} shape {shape} has a negative dimension")
        if name in layout:
            raise ValidationError(f"{where} name {name!r} repeats")
        if entry["offset"] != end:
            raise ValidationError(f"{where} offset is {entry['offset']}, but the packed layout puts it at {end}")
        layout[name] = (end // 4, shape)
        end += 4 * math.prod(shape)
    blob = manifest_path.parent / header["blob"]
    try:
        raw = blob.read_bytes()
    except OSError as e:
        raise ValidationError(f"cannot read checkpoint blob for {manifest_path}: {e}") from e
    if len(raw) != end:
        raise ValidationError(f"{manifest_path}: blob {blob.name} holds {len(raw)} bytes, but the table ends at {end}")
    data = np.frombuffer(raw, _DTYPE)
    return {name: data[i : i + math.prod(shape)].reshape(shape) for name, (i, shape) in layout.items()}, header["meta"]


def save_checkpoint(path, params: PipelineParams, arch: ArchConfig) -> None:
    """Write ``params`` under ``arch``; what ``load_checkpoint`` would reject raises before any file is written."""
    tensors = {name: np.asarray(t, dtype=_DTYPE) for name, t in params_to_tensors(params).items()}
    params_from_tensors(tensors, arch, params.mode)
    save_tensors(path, tensors, {"mode": params.mode, "arch": arch.as_dict()})


def load_checkpoint(path) -> tuple[PipelineParams, ArchConfig, str]:
    tensors, meta = load_tensors(path)
    check_record(f"{path}: meta", meta, _META)
    arch = ArchConfig.from_dict(meta["arch"], f"{path}: meta arch")
    return params_from_tensors(tensors, arch, meta["mode"]), arch, meta["mode"]
