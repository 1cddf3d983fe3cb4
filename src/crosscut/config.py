"""Run configuration and search budgets."""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from .errors import BudgetExceededError, InputError

DEFAULT_MAX_NODES = 50_000_000


@dataclass
class RunConfig:
    """Knobs shared by the search-heavy operations and the CLI."""

    max_nodes: int | None = DEFAULT_MAX_NODES
    wall_clock_s: float | None = None
    output_format: str = "json"
    cache_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.output_format not in ("json", "csv"):
            raise InputError(f"unknown output format {self.output_format!r}")

    def budget(self) -> "SearchBudget":
        return SearchBudget(self.max_nodes, self.wall_clock_s)


class SearchBudget:
    """Node/wall-clock counter for exhaustive searches.

    tick() raises BudgetExceededError when a limit is hit; exceeding a budget
    is always an error, never a silent downgrade.
    """

    __slots__ = ("max_nodes", "deadline", "nodes", "_clock_stride")

    def __init__(self, max_nodes: int | None = None, wall_clock_s: float | None = None):
        self.max_nodes = max_nodes
        self.deadline = None if wall_clock_s is None else time.monotonic() + wall_clock_s
        self.nodes = 0
        self._clock_stride = 4096

    def tick(self, n: int = 1) -> None:
        self.nodes += n
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"search exceeded node budget ({self.max_nodes} nodes)"
            )
        if self.deadline is not None and self.nodes % self._clock_stride == 0:
            if time.monotonic() > self.deadline:
                raise BudgetExceededError("search exceeded wall-clock budget")


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Parse a key=value config file ('#' starts a comment)."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def config_from_mapping(pairs: dict[str, str], base: RunConfig | None = None) -> RunConfig:
    cfg = base or RunConfig()
    known = {
        "max_nodes": lambda v: None if v.lower() == "none" else int(v),
        "wall_clock_s": lambda v: None if v.lower() == "none" else float(v),
        "output_format": str,
        "cache_dir": lambda v: None if v.lower() == "none" else Path(v),
    }
    for key, value in pairs.items():
        if key not in known:
            raise InputError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, known[key](value))
        except ValueError:
            raise InputError(f"bad value {value!r} for config key {key!r}") from None
    cfg.__post_init__()
    return cfg
