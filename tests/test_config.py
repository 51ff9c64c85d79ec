import json

import pytest

from torelli import (
    ConfigError,
    build_basis,
    capped_rank,
    config_from_json,
    config_to_json,
    ordered_partitions,
    partition_config,
    standard_grid,
)
from torelli.config import validate


def test_validation_accepts_good_configs():
    validate(partition_config(2, 0, []))
    validate(partition_config(3, 3, [[2, 3], [1]]))


def test_validation_rejects_bad_configs():
    with pytest.raises(ConfigError):
        partition_config(0, 1, [[1]])
    with pytest.raises(ConfigError):
        partition_config(2, 2, [[1]])          # 2 missing
    with pytest.raises(ConfigError):
        partition_config(2, 2, [[1, 2], [2]])  # 2 repeated
    with pytest.raises(ConfigError):
        partition_config(2, 1, [[2]])          # out of range
    with pytest.raises(ConfigError):
        partition_config(2, 1, [[]])           # empty block
    with pytest.raises(ConfigError):
        partition_config(2, -1, [])


def test_validation_names_a_few_missing_labels_of_a_huge_b():
    # b far beyond the partition is refused without listing 1..b
    with pytest.raises(ConfigError) as exc:
        partition_config(2, 10 ** 12, [[3]])
    assert str(exc.value) == (
        f"partition must cover 1..{10 ** 12} exactly; "
        "missing [1, 2, 4, 5, 6, 7, 8, 9, 10, 11, ...]")
    with pytest.raises(ConfigError) as exc:
        partition_config(2, 3, [[3], [5]])
    assert str(exc.value) == \
        "partition must cover 1..3 exactly; missing [1, 2]; extra [5]"


def test_capped_rank_and_layout_anchor():
    # one loop handle per singleton block, size-1 arcs otherwise
    config = partition_config(3, 6, [[1, 2, 3], [4, 5], [6]])
    assert capped_rank(config) == 7
    basis = build_basis(config)
    assert [r.text() for r in basis.roles] == [
        "loop:1", "loop:2", "loop:3",
        "arc:1:2", "arc:1:3", "arc:2:2", "handle:3",
    ]
    assert basis.block_indices(1) == (4, 5)
    assert basis.block_indices(2) == (6,)
    assert basis.block_indices(3) == (7,)


def test_build_basis_is_built_once_per_config():
    config = partition_config(3, 3, [[1, 3], [2]])
    basis = build_basis(config)
    assert build_basis(config) is basis
    # an equal configuration built separately hits the same entry
    assert build_basis(partition_config(3, 3, [[1, 3], [2]])) is basis
    assert build_basis(partition_config(3, 3, [[2], [1, 3]])) is not basis


def test_boundary_address():
    config = partition_config(2, 3, [[1, 3], [2]])
    assert config.boundary_address(1) == (1, 1)
    assert config.boundary_address(3) == (1, 2)
    assert config.boundary_address(2) == (2, 1)
    with pytest.raises(ConfigError):
        config.boundary_address(4)


def test_is_singleton_and_blocks():
    config = partition_config(2, 3, [[1, 3], [2]])
    assert config.num_blocks == 2
    assert config.block(1) == (1, 3)
    assert not config.is_singleton(1)
    assert config.is_singleton(2)


def test_config_json_round_trip():
    config = partition_config(3, 2, [[2], [1]])
    blob = json.dumps(config_to_json(config))
    assert config_from_json(blob) == config
    assert config_from_json(config_to_json(config)) == config
    with pytest.raises(ConfigError):
        config_from_json("{not json")
    with pytest.raises(ConfigError):
        config_from_json({"n": 2, "b": 1})


def test_ordered_partition_counts():
    # ordered set partitions: 1, 1, 3, 13 blocksequences for b = 0..3
    assert [len(ordered_partitions(b)) for b in range(4)] == [1, 1, 3, 13]
    assert ordered_partitions(2) == [((1,), (2,)), ((1, 2),), ((2,), (1,))]


def test_standard_grid_size():
    grid = standard_grid()
    assert len(grid) == 36
    assert len({(c.n, c.b, c.partition) for c in grid}) == 36
    assert all(capped_rank(c) <= 8 for c in grid)
