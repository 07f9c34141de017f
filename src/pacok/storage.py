"""Run configuration files, binary checkpoints, CSV traces and PNG rendering.

Checkpoint layout (little-endian): magic ``OKPF``, version u32, dim u32,
per-axis counts u32, per-axis lengths f64, time f64, step u64, then the u
samples and the v samples as f64, row-major with x fastest. Write-then-read
is bit exact.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import RunState, StepperConfig
from .energy import EnergyBreakdown, PhysParams
from .errors import CorruptCheckpointError, UnsupportedVersionError
from .grid import Field, GridSpec
from . import initcond

MAGIC = b"OKPF"
VERSION = 1

TRACE_HEADER = "step,time,E,P,N,C,Reg,mass_u,mass_v,residual"

# RGB anchors: (u,v) = (1,0), (0,1), (0,0)
_COLOR_U = np.array([211.0, 95.0, 183.0])
_COLOR_V = np.array([220.0, 220.0, 98.0])
_COLOR_BG = np.array([255.0, 255.0, 255.0])


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoisePerturbation:
    amplitude: float = 0.01
    seed: int = 0


@dataclass(frozen=True)
class HolePerturbation:
    center: tuple[float, ...]
    radius: float


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; serializes losslessly to JSON."""

    params: PhysParams
    stepper: StepperConfig
    grid: GridSpec
    init: initcond.BilayerSpec | str  # seed spec, or a checkpoint path
    perturb: NoisePerturbation | HolePerturbation | None = None
    output_dir: str = "out"
    rescale_masses: bool = True


_SHAPE_TAGS = {
    "ball": initcond.Ball,
    "shell": initcond.Shell,
    "slab": initcond.Slab,
    "torus": initcond.Torus,
    "gyroid": initcond.Gyroid,
    "curve_bilayer": initcond.CurveBilayer,
}


def _tag_of(obj) -> str:
    for tag, cls in _SHAPE_TAGS.items():
        if isinstance(obj, cls):
            return tag
    raise TypeError(f"unknown shape {type(obj).__name__}")


def _jsonify(value):
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    return value


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


def config_to_dict(cfg: RunConfig) -> dict:
    out = {
        "params": {k: v for k, v in dataclasses.asdict(cfg.params).items()},
        "stepper": dataclasses.asdict(cfg.stepper),
        "grid": {"points": list(cfg.grid.points), "lengths": list(cfg.grid.lengths)},
        "output_dir": cfg.output_dir,
        "rescale_masses": cfg.rescale_masses,
    }
    if isinstance(cfg.init, str):
        out["init"] = {"checkpoint": cfg.init}
    else:
        spec = cfg.init
        out["init"] = {
            "shape": {"variant": _tag_of(spec.shape),
                      **{k: _jsonify(v) for k, v in dataclasses.asdict(spec.shape).items()}},
            "epsilon": spec.epsilon,
            "u_half_thickness": spec.u_half_thickness,
            "v_thickness": spec.v_thickness,
            "zeta": spec.zeta,
        }
    if cfg.perturb is None:
        out["perturb"] = None
    elif isinstance(cfg.perturb, NoisePerturbation):
        out["perturb"] = {"kind": "noise", "amplitude": cfg.perturb.amplitude, "seed": cfg.perturb.seed}
    else:
        out["perturb"] = {"kind": "hole", "center": _jsonify(cfg.perturb.center), "radius": cfg.perturb.radius}
    return out


def _section(data: dict, key: str, where: str = "config") -> dict:
    """``data[key]``, which must be a JSON object; otherwise a ValueError naming it."""
    value = data.get(key)
    if value is None:
        raise ValueError(f"missing section {key!r} in {where}")
    if not isinstance(value, dict):
        raise ValueError(f"section {key!r} in {where} is not an object")
    return value


def _build(cls, data: dict, where: str):
    """``cls(**data)``; an unknown or missing key is a ValueError naming it and ``where``."""
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in data:
        if key not in names:
            raise ValueError(f"unknown key {key!r} in {where}")
    for f in fields:
        if f.name not in data and f.default is dataclasses.MISSING:
            raise ValueError(f"missing key {f.name!r} in {where}")
    return cls(**data)


def config_from_dict(data: dict) -> RunConfig:
    """Parse a config mapping; a missing section, an unknown top-level key,
    or an unknown or missing key in a section is a ValueError that names it."""
    params = _build(PhysParams, _section(data, "params"), "config.params")
    stepper = _build(StepperConfig, _section(data, "stepper"), "config.stepper")
    grid = _build(GridSpec, _section(data, "grid"), "config.grid")
    init_data = _section(data, "init")
    if "checkpoint" in init_data:
        init = init_data["checkpoint"]
    else:
        shape_data = dict(_section(init_data, "shape", "config.init"))
        variant = shape_data.pop("variant", None)
        if variant not in _SHAPE_TAGS:
            raise ValueError(f"unknown shape variant {variant!r} in config.init.shape")
        shape = _build(_SHAPE_TAGS[variant], {k: _tuplify(v) for k, v in shape_data.items()},
                       "config.init.shape")
        init = _build(initcond.BilayerSpec, {**init_data, "shape": shape}, "config.init")
    perturb = None
    if data.get("perturb") is not None:
        perturb_data = {k: _tuplify(v) for k, v in _section(data, "perturb").items()}
        kinds = {"noise": NoisePerturbation, "hole": HolePerturbation}
        kind = perturb_data.pop("kind", None)
        if kind not in kinds:
            raise ValueError(f"unknown perturbation kind {kind!r} in config.perturb")
        perturb = _build(kinds[kind], perturb_data, "config.perturb")
    parsed = dict(params=params, stepper=stepper, grid=grid, init=init, perturb=perturb)
    return _build(RunConfig, {**data, **parsed}, "config")


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")


def load_config(path) -> RunConfig:
    return config_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint(path, state: RunState) -> None:
    grid = state.u.grid
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    blob += struct.pack("<I", grid.dim)
    blob += struct.pack(f"<{grid.dim}I", *grid.points)
    blob += struct.pack(f"<{grid.dim}d", *grid.lengths)
    blob += struct.pack("<d", state.time)
    blob += struct.pack("<Q", state.step)
    blob += state.u.values.astype("<f8").tobytes()
    blob += state.v.values.astype("<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def read_checkpoint(path) -> RunState:
    raw = Path(path).read_bytes()

    def need(offset: int, count: int, what: str) -> bytes:
        if len(raw) < offset + count:
            raise CorruptCheckpointError(len(raw), f"file truncated while reading {what}")
        return raw[offset : offset + count]

    if need(0, 4, "magic") != MAGIC:
        raise CorruptCheckpointError(0, f"bad magic {raw[:4]!r}")
    (version,) = struct.unpack("<I", need(4, 4, "version"))
    if version != VERSION:
        raise UnsupportedVersionError(4, f"unsupported checkpoint version {version}")
    (dim,) = struct.unpack("<I", need(8, 4, "dimension"))
    if dim not in (2, 3):
        raise CorruptCheckpointError(8, f"bad dimension {dim}")
    offset = 12
    points = struct.unpack(f"<{dim}I", need(offset, 4 * dim, "point counts"))
    offset += 4 * dim
    lengths = struct.unpack(f"<{dim}d", need(offset, 8 * dim, "box lengths"))
    offset += 8 * dim
    (time,) = struct.unpack("<d", need(offset, 8, "time"))
    offset += 8
    (step,) = struct.unpack("<Q", need(offset, 8, "step"))
    offset += 8
    try:
        grid = GridSpec(points, lengths)
    except ValueError as exc:
        raise CorruptCheckpointError(12, f"bad grid header: {exc}") from exc
    count = grid.size
    u_bytes = need(offset, 8 * count, "u samples")
    offset += 8 * count
    v_bytes = need(offset, 8 * count, "v samples")
    offset += 8 * count
    if len(raw) != offset:
        raise CorruptCheckpointError(offset, f"{len(raw) - offset} trailing bytes")
    u = np.frombuffer(u_bytes, dtype="<f8").reshape(grid.shape).copy()
    v = np.frombuffer(v_bytes, dtype="<f8").reshape(grid.shape).copy()
    return RunState(u=Field(grid, u), v=Field(grid, v), time=time, step=step)


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------


def append_trace(path, step: int, time: float, breakdown: EnergyBreakdown,
                 masses: tuple[float, float], residual: float) -> None:
    """Append one row; writes the header on an empty/new file."""
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    row = ",".join(
        [str(step)]
        + [format(x, ".17g") for x in (
            time, breakdown.total, breakdown.perimeter, breakdown.nonlocal_,
            breakdown.constraint, breakdown.v_regularization,
            masses[0], masses[1], residual,
        )]
    )
    with path.open("a") as handle:
        if fresh:
            handle.write(TRACE_HEADER + "\n")
        handle.write(row + "\n")


def read_trace(path) -> dict[str, np.ndarray]:
    """Columns of a trace file, keyed by header name."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"not a trace file: {path}")
    names = lines[0].split(",")
    data = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    if data.size == 0:
        data = data.reshape(0, len(names))
    return {name: data[:, i] for i, name in enumerate(names)}


# ---------------------------------------------------------------------------
# PNG rendering
# ---------------------------------------------------------------------------


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    chunk = tag + payload
    return struct.pack(">I", len(payload)) + chunk + struct.pack(">I", zlib.crc32(chunk))


def write_png(path, rgb: np.ndarray) -> None:
    """Minimal 8-bit RGB PNG writer (filter 0, fixed compression level)."""
    height, width, _ = rgb.shape
    raw = b"".join(b"\x00" + rgb[row].tobytes() for row in range(height))
    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    blob = b"\x89PNG\r\n\x1a\n"
    blob += _png_chunk(b"IHDR", header)
    blob += _png_chunk(b"IDAT", zlib.compress(raw, 6))
    blob += _png_chunk(b"IEND", b"")
    Path(path).write_bytes(blob)


def phase_colors(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Map (u, v) -> RGB: white + u*(pink-white) + v*(yellow-white), clipped."""
    rgb = (
        _COLOR_BG
        + u[..., None] * (_COLOR_U - _COLOR_BG)
        + v[..., None] * (_COLOR_V - _COLOR_BG)
    )
    return np.clip(np.rint(rgb), 0.0, 255.0).astype(np.uint8)


_AXIS_NAMES = {"x": 0, "y": 1, "z": 2}


def render_cross_section(u: Field, v: Field, plane, path) -> None:
    """PNG of a 2-D field or of an axis-aligned section of a 3-D field.

    ``plane`` is None for 2-D fields, else (axis_name, node_index). One pixel
    per grid node; image rows run top to bottom with the vertical coordinate
    increasing upward.
    """
    grid = u.grid
    if grid.dim == 2:
        u_plane, v_plane = u.values, v.values
    else:
        if plane is None:
            plane = ("z", grid.points[2] // 2)
        axis_name, index = plane
        axis = _AXIS_NAMES[axis_name]
        if not 0 <= index < grid.points[axis]:
            raise ValueError(f"plane index {index} outside the {axis_name} axis")
        array_axis = grid.dim - 1 - axis
        u_plane = np.take(u.values, index, axis=array_axis)
        v_plane = np.take(v.values, index, axis=array_axis)
    write_png(path, phase_colors(u_plane, v_plane)[::-1])
