"""Pipeline configuration: one typed table of keys and defaults, which
rejects out-of-range values when it is built, and the key = value file
reader.

Every key is a `PipelineConfig` field; its default is the field default and
its file syntax follows the field type. CLI flags override file values.
"""
from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal


class PipelineError(Exception):
    """Stage-labeled pipeline failure."""


# hole circles as cx,cy,r triples; file syntax "cx,cy,r; cx,cy,r"
Holes = list[tuple[float, float, float]]


@dataclass
class PipelineConfig:
    mode: Literal["plane", "surface", "remesh", "compare-qc"] = "plane"
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

    def __post_init__(self):
        """Reject every out-of-range value, however the config was built."""
        for key, tp in typing.get_type_hints(PipelineConfig).items():
            allowed = typing.get_args(tp)
            if typing.get_origin(tp) is Literal and getattr(self, key) not in allowed:
                _reject(key, f"'{getattr(self, key)}' is not one of {', '.join(allowed)}")
        for hole in self.holes:
            if not all(map(math.isfinite, hole)):
                _reject("holes", f"hole {hole} is not finite")
            if not hole[2] > 0.0:
                _reject("holes", f"hole {hole} has a radius that is not positive")
        for key in ("max_sweeps", "qc_period"):
            if getattr(self, key) < 1:
                _reject(key, "must be at least 1")
        # NaN fails too; r_min may exceed r_max, which uniform plane mode ignores
        for key in ("plane_width", "plane_height", "r_max", "r_min", "grade_band",
                    "force_tol_factor"):
            if not getattr(self, key) > 0.0:
                _reject(key, "must be positive")
        if not self.qc_low < self.qc_high:
            _reject("qc_low", f"{self.qc_low} is not below qc_high {self.qc_high}")


def _reject(key: str, why: str):
    raise PipelineError(f"[config] {key}: {why}")


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
    # a Literal's value is checked with the others by PipelineConfig
    return s if typing.get_origin(tp) is Literal else _PARSERS[tp](s)


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

