"""Run configuration and search budgets."""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from .errors import BudgetExceededError, InputError

DEFAULT_MAX_NODES = 50_000_000
# the wall clock is read once per this many nodes
_CLOCK_STRIDE = 4096


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the search-heavy operations and the CLI.

    None for a budget means unlimited; a given budget must be positive.
    """

    max_nodes: int | None = DEFAULT_MAX_NODES
    wall_clock_s: float | None = None
    output_format: str = "json"
    cache_dir: Path | None = None

    def __post_init__(self) -> None:
        _check_limits(self.max_nodes, self.wall_clock_s)
        if self.output_format not in ("json", "csv"):
            raise InputError(f"unknown output format {self.output_format!r}")

    def budget(self) -> "SearchBudget":
        return SearchBudget(self.max_nodes, self.wall_clock_s)


def _check_limits(max_nodes: int | None, wall_clock_s: float | None) -> None:
    """InputError unless each given limit is positive (None is unlimited)."""
    if max_nodes is not None and max_nodes < 1:
        raise InputError(f"max_nodes must be positive, got {max_nodes}")
    if wall_clock_s is not None and not wall_clock_s > 0:
        raise InputError(f"wall_clock_s must be positive, got {wall_clock_s}")


class SearchBudget:
    """Node/wall-clock counter for exhaustive searches.

    tick() raises BudgetExceededError when a limit is hit; exceeding a budget
    is always an error, never a silent downgrade.  A limit that is given must
    be positive, else InputError.
    """

    __slots__ = ("max_nodes", "deadline", "nodes")

    def __init__(self, max_nodes: int | None = None, wall_clock_s: float | None = None):
        _check_limits(max_nodes, wall_clock_s)
        self.max_nodes = max_nodes
        self.deadline = None if wall_clock_s is None else time.monotonic() + wall_clock_s
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"search exceeded node budget ({self.max_nodes} nodes)"
            )
        if self.deadline is not None and self.nodes % _CLOCK_STRIDE == 0:
            if time.monotonic() > self.deadline:
                raise BudgetExceededError("search exceeded wall-clock budget")


_CONFIG_KEYS = {
    "max_nodes": lambda v: None if v.lower() == "none" else int(v),
    "wall_clock_s": lambda v: None if v.lower() == "none" else float(v),
    "output_format": str,
    "cache_dir": lambda v: None if v.lower() == "none" else Path(v),
}


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read a key=value config file ('#' starts a comment) into RunConfig
    field values; the last line wins for a repeated key."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    out: dict[str, object] = {}
    for key, value in pairs.items():
        if key not in _CONFIG_KEYS:
            raise InputError(f"unknown config key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise InputError(f"bad value {value!r} for config key {key!r}") from None
    return out
