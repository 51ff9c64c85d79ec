"""Handle/boundary configurations and the capped free-group basis.

A configuration is (n, b, P): n handles, b boundary components, and an
ordered partition P of the boundary labels {1..b}.  Capping each block
embeds the group into Aut(F_m) where

    m = n + sum over blocks (1 if the block is a singleton else size - 1).

The capped basis is laid out deterministically: the n loop generators
first, then the blocks in partition order, each multi block contributing
arc generators Arc(r, s) for s = 2..size and each singleton block one
handle generator Handle(r).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import islice


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PartitionConfig:
    n: int
    b: int
    partition: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        validate(self)

    @property
    def num_blocks(self) -> int:
        return len(self.partition)

    def block(self, r: int) -> tuple[int, ...]:
        return self.partition[r - 1]

    def is_singleton(self, r: int) -> bool:
        return len(self.partition[r - 1]) == 1

    def boundary_address(self, label: int) -> tuple[int, int]:
        """(block number, position inside block), both 1-based."""
        for r, block in enumerate(self.partition, start=1):
            if label in block:
                return r, block.index(label) + 1
        raise ConfigError(f"boundary label {label} not in any block")


def validate(config: PartitionConfig) -> PartitionConfig:
    if config.n < 1:
        raise ConfigError(f"need n >= 1, got {config.n}")
    if config.b < 0:
        raise ConfigError(f"need b >= 0, got {config.b}")
    seen: set[int] = set()
    for block in config.partition:
        if not block:
            raise ConfigError("empty block")
        for label in block:
            if label in seen:
                raise ConfigError(f"label {label} repeated")
            seen.add(label)
    extra = sorted(x for x in seen if not 1 <= x <= config.b)
    if extra or len(seen) != config.b:
        # b may be far larger than the input: name ten missing labels
        missing = [str(x) for x in islice(
            (x for x in range(1, config.b + 1) if x not in seen), 11)]
        missing[10:] = ["..."] if len(missing) > 10 else []
        raise ConfigError(
            f"partition must cover 1..{config.b} exactly"
            + (f"; missing [{', '.join(missing)}]" if missing else "")
            + (f"; extra {extra}" if extra else ""))
    return config


def partition_config(n: int, b: int, partition) -> PartitionConfig:
    return PartitionConfig(n, b, tuple(tuple(block) for block in partition))


@dataclass(frozen=True)
class BasisRole:
    """One of loop:i, arc:r:s (multi blocks, s >= 2), handle:r (singletons)."""

    kind: str
    r: int
    s: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("loop", "arc", "handle"):
            raise ValueError(f"unknown role kind {self.kind!r}")

    def text(self) -> str:
        if self.kind == "arc":
            return f"arc:{self.r}:{self.s}"
        return f"{self.kind}:{self.r}"


def capped_rank(config: PartitionConfig) -> int:
    m = config.n
    for block in config.partition:
        m += 1 if len(block) == 1 else len(block) - 1
    return m


@dataclass(frozen=True)
class CappedBasis:
    config: PartitionConfig
    m: int
    roles: tuple[BasisRole, ...]

    def block_indices(self, r: int) -> tuple[int, ...]:
        """Generator indices of block r (its arcs, or its handle)."""
        return tuple(idx for idx, role in enumerate(self.roles, start=1)
                     if role.kind != "loop" and role.r == r)


@functools.cache
def build_basis(config: PartitionConfig) -> CappedBasis:
    """The capped basis of a configuration, built once per configuration:
    both are frozen, so every caller can share the same object."""
    roles = [BasisRole("loop", i) for i in range(1, config.n + 1)]
    for r, block in enumerate(config.partition, start=1):
        if len(block) == 1:
            roles.append(BasisRole("handle", r))
        else:
            roles.extend(BasisRole("arc", r, s)
                         for s in range(2, len(block) + 1))
    basis = CappedBasis(config, len(roles), tuple(roles))
    assert basis.m == capped_rank(config)
    return basis


# --- JSON -----------------------------------------------------------------

def config_to_json(config: PartitionConfig) -> dict:
    return {"n": config.n, "b": config.b,
            "partition": [list(block) for block in config.partition]}


def config_from_json(obj) -> PartitionConfig:
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config JSON must be an object")
    for key in ("n", "b", "partition"):
        if key not in obj:
            raise ConfigError(f"config JSON missing {key!r}")
    for key in ("n", "b"):
        if type(obj[key]) is not int:
            raise ConfigError(f"config {key!r} must be an integer")
    partition = obj["partition"]
    if (not isinstance(partition, list)
            or any(not isinstance(block, list)
                   or any(type(x) is not int for x in block)
                   for block in partition)):
        raise ConfigError("config 'partition' must be a list of lists "
                          "of integers")
    return partition_config(obj["n"], obj["b"], partition)


# --- the test grid --------------------------------------------------------

def ordered_partitions(b: int) -> list[tuple[tuple[int, ...], ...]]:
    """All ordered partitions of {1..b}: the blocks are sequenced, the
    labels inside each block are kept ascending.  Counts 1, 1, 3, 13 for
    b = 0..3."""
    if b == 0:
        return [()]
    out: list[tuple[tuple[int, ...], ...]] = []

    def place(label: int, blocks: list[list[int]]) -> None:
        if label > b:
            out.append(tuple(tuple(block) for block in blocks))
            return
        for block in blocks:
            block.append(label)
            place(label + 1, blocks)
            block.pop()
        # label opens a new block, inserted at every possible position
        for pos in range(len(blocks) + 1):
            blocks.insert(pos, [label])
            place(label + 1, blocks)
            blocks.pop(pos)

    place(1, [])
    return sorted(set(out))


def standard_grid(ns=(2, 3), bs=(0, 1, 2, 3)) -> list[PartitionConfig]:
    grid = []
    for n in ns:
        for b in bs:
            for partition in ordered_partitions(b):
                grid.append(PartitionConfig(n, b, partition))
    return grid
