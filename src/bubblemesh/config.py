"""Pipeline configuration: one typed table of keys and defaults, the
key = value file reader, and the rule that turns a config into relaxation
parameters scaled to a bubble population.

Every key is a `PipelineConfig` field; its default is the field default and
its file syntax follows the field type. CLI flags override file values.
"""
from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from .relaxation import DynamicsParams, ForceParams


class PipelineError(Exception):
    """Stage-labeled pipeline failure."""


# hole circles as cx,cy,r triples; file syntax "cx,cy,r; cx,cy,r"
Holes = list[tuple[float, float, float]]


@dataclass
class PipelineConfig:
    mode: str = "plane"
    seed: int = 0
    out: Path = Path("out")
    # plane mode
    plane_width: float = 20.0
    plane_height: float = 10.0
    holes: Holes = field(default_factory=lambda: [(10.0, 5.0, 2.0)])
    r_max: float = 0.5
    r_min: float = 0.5
    graded: bool = False
    grade_band: float = 4.0
    anchors_file: str = ""
    # surface mode; surface_params syntax "name=value, name=value"
    surface: str = "sphere"
    surface_params: dict = field(default_factory=lambda: {"radius": 1.0})
    epsilon: float = 0.01
    # remesh mode
    input_mesh: str = ""
    # compare-qc mode: take initial bubbles from the plane packing or from a
    # surface-pipeline flatten + reconstruction
    compare_source: Literal["plane", "surface"] = "plane"
    # relaxation / quantity control, in every mode; qc_low, qc_high and
    # qc_period act under qc = original only
    qc: Literal["new", "original"] = "new"
    qc_threshold: float = 1.0
    qc_low: float = 5.0
    qc_high: float = 8.0
    qc_period: int = 10
    max_sweeps: int = 400
    force_tol_factor: float = 0.01


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _parse_bool(s: str) -> bool:
    try:
        return _BOOLS[s.strip().lower()]
    except KeyError:
        raise ValueError(f"'{s}' is not one of {', '.join(_BOOLS)}") from None


def _parse_holes(s: str) -> Holes:
    out = []
    for part in s.split(";"):
        part = part.strip()
        if not part:
            continue
        nums = [float(t) for t in part.split(",")]
        if len(nums) != 3:
            raise ValueError(f"hole spec '{part}' is not cx,cy,r")
        if not nums[2] > 0.0:
            raise ValueError(f"hole spec '{part}' has a radius that is not positive")
        out.append(tuple(nums))
    return out


def _parse_params(s: str) -> dict:
    out = {}
    for part in s.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        out[key.strip()] = float(val)
    return out


_PARSERS = {int: int, float: float, str: str, Path: Path, bool: _parse_bool,
            dict: _parse_params, Holes: _parse_holes}


def _parse_value(tp, s: str):
    if typing.get_origin(tp) is Literal:
        if s not in typing.get_args(tp):
            raise ValueError(f"'{s}' is not one of {', '.join(typing.get_args(tp))}")
        return s
    return _PARSERS[tp](s)


def read_config_file(path) -> dict[str, str]:
    values = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise PipelineError(f"[config] line {ln}: expected key = value")
        values[key.strip()] = val.strip()
    return values


def load_config(path=None, overrides: dict[str, str] | None = None) -> PipelineConfig:
    """Field defaults, then the file's values, then the non-None overrides."""
    values = read_config_file(path) if path is not None else {}
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    types = typing.get_type_hints(PipelineConfig)
    unknown = set(values) - {f.name for f in dataclasses.fields(PipelineConfig)}
    if unknown:
        raise PipelineError(f"[config] unknown keys: {sorted(unknown)}")
    parsed = {}
    for key, text in values.items():
        try:
            parsed[key] = _parse_value(types[key], text)
        except ValueError as exc:
            raise PipelineError(f"[config] {key}: {exc}") from exc
    cfg = PipelineConfig(**parsed)
    if cfg.anchors_file and not Path(cfg.anchors_file).exists():
        raise PipelineError(f"[config] anchors file not found: {cfg.anchors_file}")
    if cfg.mode == "remesh" and cfg.input_mesh and not Path(cfg.input_mesh).exists():
        raise PipelineError(f"[config] input mesh not found: {cfg.input_mesh}")
    return cfg


def relax_params(cfg: PipelineConfig, bubbles) -> dict:
    """Keyword arguments of `relax_until_converged` for this config, with the
    force and dynamics scaled to the bubble population.

    f0 = r_min, at the force law's unit stiffness, keeps the cubic law
    repulsive below tangency and attractive up to the cutoff for every pair
    scale in the population. Mass and stiffness are one, and dt keeps its
    default (`DynamicsParams`: dt = 0.4, where every strategy's FIRE steps
    start, growing it up to 0.6 with the residual damping 0.7): another
    stiffness would scale f0, the damping's square, 1/dt^2 and the force
    tolerance together, and change no trajectory in sweeps.
    """
    radii = [b.radius for b in bubbles]
    r_min = min(radii)
    r_mean = float(np.mean(radii))
    return dict(
        force=ForceParams(f0=r_min),
        dyn=DynamicsParams(
            force_tol=cfg.force_tol_factor * r_mean,
            max_sweeps=cfg.max_sweeps,
        ),
        strategy=f"{cfg.qc}-qc",
        qc_threshold=cfg.qc_threshold, qc_low=cfg.qc_low, qc_high=cfg.qc_high,
        qc_period=cfg.qc_period, seed=cfg.seed)
