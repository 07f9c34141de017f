"""Run configuration files, binary checkpoints, CSV traces and PNG rendering.

Checkpoint layout (little-endian), defined once by ``_PREFIX`` and
``_grid_header``: magic ``OKPF``, version u32, dim u32, per-axis counts u32,
per-axis lengths f64, time f64, step u64, then the u samples and the v
samples as f64, row-major with x fastest. Write-then-read is bit exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import RunState, StepperConfig
from .energy import EnergyBreakdown, PhysParams, _Whole
from .errors import (CorruptCheckpointError, InvalidFieldError, UnsupportedVersionError,
                     require_nonnegative, whole_number)
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

    def __post_init__(self) -> None:
        require_nonnegative(amplitude=self.amplitude)
        object.__setattr__(self, "seed", whole_number("seed", self.seed))
        require_nonnegative(seed=self.seed)


@dataclass(frozen=True)
class HolePerturbation:
    """A hole of ``radius`` cut at ``center``; radius 0 cuts none."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        require_nonnegative(radius=self.radius)


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; serializes losslessly to JSON."""

    params: PhysParams
    stepper: StepperConfig
    grid: GridSpec
    init: initcond.BilayerSpec | str  # seed spec, or a checkpoint path
    perturb: NoisePerturbation | HolePerturbation | None = None
    output_dir: str = "out"
    rescale_masses: bool = True  # a shape seed's, after its perturbation; never a checkpoint's

    def __post_init__(self) -> None:
        if not isinstance(self.rescale_masses, bool):
            raise ValueError(f"rescale_masses must be true or false, got {self.rescale_masses!r}")
        for name, path in (("output_dir", self.output_dir), ("checkpoint", self.init)):
            if not isinstance(path, (str, initcond.BilayerSpec)):
                raise ValueError(f"{name} must be a path, got {path!r}")


# One tag table per tagged union; encoding and decoding both read it.
_SHAPE_TAGS = {
    "ball": initcond.Ball,
    "shell": initcond.Shell,
    "slab": initcond.Slab,
    "torus": initcond.Torus,
    "gyroid": initcond.Gyroid,
    "curve_bilayer": initcond.CurveBilayer,
}
_PERTURB_KINDS = {"noise": NoisePerturbation, "hole": HolePerturbation}


def _tagged(key: str, tags: dict, obj) -> dict:
    """``obj``'s fields after ``key``: the tag of its class in ``tags``."""
    tag = {cls: tag for tag, cls in tags.items()}[type(obj)]
    return {key: tag, **dataclasses.asdict(obj)}


def _untagged(key: str, tags: dict, data: dict, where: str):
    """Inverse of :func:`_tagged`; JSON lists become tuples."""
    data = {k: _tuplify(v) for k, v in data.items()}
    tag = data.pop(key, None)
    if not isinstance(tag, str) or tag not in tags:
        raise ValueError(f"unknown {key} {tag!r} in {where}")
    return _build(tags[tag], data, where)


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


def config_to_dict(cfg: RunConfig) -> dict:
    """JSON-ready mapping of ``cfg``; ``init`` and ``perturb`` come last."""
    out = dataclasses.asdict(cfg)
    init = out.pop("init")
    del out["perturb"]  # re-added after init, the key order of every saved config
    if isinstance(init, str):
        out["init"] = {"checkpoint": init}
    else:
        out["init"] = {**init, "shape": _tagged("variant", _SHAPE_TAGS, cfg.init.shape)}
    out["perturb"] = None if cfg.perturb is None else _tagged("kind", _PERTURB_KINDS, cfg.perturb)
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
        shape_data = _section(init_data, "shape", "config.init")
        shape = _untagged("variant", _SHAPE_TAGS, shape_data, "config.init.shape")
        init = _build(initcond.BilayerSpec, {**init_data, "shape": shape}, "config.init")
    perturb = None
    if data.get("perturb") is not None:
        perturb = _untagged("kind", _PERTURB_KINDS, _section(data, "perturb"), "config.perturb")
    parsed = dict(params=params, stepper=stepper, grid=grid, init=init, perturb=perturb)
    return _build(RunConfig, {**data, **parsed}, "config")


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")


def load_config(path) -> RunConfig:
    return config_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


_PREFIX = struct.Struct("<4sII")  # magic, version, dim


def _grid_header(dim: int) -> struct.Struct:
    """The header after the prefix: counts, lengths, time and step."""
    return struct.Struct(f"<{dim}I{dim}ddQ")


def write_checkpoint(path, state: RunState) -> None:
    """Write ``state`` to ``path`` through a temporary sibling renamed into place.

    A write that fails leaves any earlier file at ``path`` untouched.
    """
    path = Path(path)
    grid = state.u.grid
    header = _PREFIX.pack(MAGIC, VERSION, grid.dim) + _grid_header(grid.dim).pack(
        *grid.points, *grid.lengths, state.time, state.step)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as out:
            out.write(header)
            out.write(np.ascontiguousarray(state.u.values, dtype="<f8"))
            out.write(np.ascontiguousarray(state.v.values, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_checkpoint(path) -> RunState:
    """Read a checkpoint; the file size is checked against its header before
    the samples are read straight into their arrays."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size

        def read(layout: struct.Struct, what: str) -> tuple:
            raw = handle.read(layout.size)
            if len(raw) < layout.size:
                raise CorruptCheckpointError(size, f"file truncated while reading {what}")
            return layout.unpack(raw)

        magic, version, dim = read(_PREFIX, "the header")
        if magic != MAGIC:
            raise CorruptCheckpointError(0, f"bad magic {magic!r}")
        if version != VERSION:
            raise UnsupportedVersionError(4, f"unsupported checkpoint version {version}")
        if dim not in (2, 3):
            raise CorruptCheckpointError(8, f"bad dimension {dim}")
        header = _grid_header(dim)
        *sizes, time, step = read(header, "the grid header")
        try:
            grid = GridSpec(sizes[:dim], sizes[dim:])
        except ValueError as exc:
            raise CorruptCheckpointError(12, f"bad grid header: {exc}") from exc
        start = _PREFIX.size + header.size
        if not math.isfinite(time):  # time and step are the header's last 16 bytes
            raise CorruptCheckpointError(start - 16, f"non-finite time {time}")
        nbytes = 8 * grid.size
        end = start + 2 * nbytes
        if size < end:
            which = "u" if size < end - nbytes else "v"
            raise CorruptCheckpointError(size, f"file truncated while reading {which} samples")
        if size > end:
            raise CorruptCheckpointError(end, f"{size - end} trailing bytes")
        u, v = np.empty(grid.shape, "<f8"), np.empty(grid.shape, "<f8")
        if handle.readinto(u) + handle.readinto(v) != 2 * nbytes:
            raise CorruptCheckpointError(handle.tell(), "file shrank while being read")
    try:
        return RunState(u=Field(grid, u), v=Field(grid, v), time=time, step=step)
    except InvalidFieldError:
        first = int(np.argmin(np.isfinite(np.concatenate((u.ravel(), v.ravel())))))
        raise CorruptCheckpointError(start + 8 * first, "non-finite sample") from None


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
    """Minimal 8-bit RGB PNG writer: filter 0, zlib level 4.

    Level 4 encodes a phase image in under half of level 6's time, for
    files 3-10% larger; the decoded pixels are the same at every level.
    """
    height, width, _ = rgb.shape
    raw = b"".join(b"\x00" + rgb[row].tobytes() for row in range(height))
    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    blob = b"\x89PNG\r\n\x1a\n"
    blob += _png_chunk(b"IHDR", header)
    blob += _png_chunk(b"IDAT", zlib.compress(raw, 4))
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

    ``plane`` is (axis_name, node_index) and is ignored for 2-D fields; a
    None index, or a None plane, takes the middle node of the axis (of z).
    One pixel per grid node; image rows run top to bottom with the vertical
    coordinate increasing upward.
    """
    grid = u.grid
    if grid.dim == 2:
        u_plane, v_plane = u.values, v.values
    else:
        axis_name, index = plane or ("z", None)
        axis = _AXIS_NAMES[axis_name]
        if index is None:
            index = grid.points[axis] // 2
        if not 0 <= index < grid.points[axis]:
            raise ValueError(f"plane index {index} outside the {axis_name} axis")
        array_axis = grid.dim - 1 - axis
        u_plane = np.take(u.values, index, axis=array_axis)
        v_plane = np.take(v.values, index, axis=array_axis)
    write_png(path, phase_colors(u_plane, v_plane)[::-1])


def render_stack(u: Field, v: Field, axis_name: str, path, schedule=_Whole) -> int:
    """Every plane of a 3-D field along ``axis_name``, as PATH_NNN.png; returns their count.

    ``schedule.pair`` renders the even planes beside the odd ones (by
    default one half after the other on this thread).
    """
    base = Path(path)
    count = u.grid.points[_AXIS_NAMES[axis_name]]

    def planes(first):
        for index in range(first, count, 2):
            target = base.with_name(f"{base.stem}_{index:03d}{base.suffix or '.png'}")
            render_cross_section(u, v, (axis_name, index), target)

    schedule.pair(lambda: planes(0), lambda: planes(1))
    return count
