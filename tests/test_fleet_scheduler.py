"""Affinity scheduling: trace grouping, blocks, LPT sharding, tail
stealing."""

from repro.fleet import Recipe
from repro.fleet.scheduler import (
    BLOCK_INSTRUCTIONS,
    affinity_key,
    build_blocks,
    build_shards,
    group_by_trace,
    order_cells,
    recipe_blocks,
    steal_candidates,
)


def grid_cells(kernels=("crc32", "sha", "qsort"), **overrides):
    payload = {
        "name": "sched",
        "kernels": list(kernels),
        "axes": {"l1d": [[8192, 2, 32], [16384, 2, 32]],
                 "predictor": ["gap", "bimodal"],
                 "width": [1, 2]},
    }
    payload.update(overrides)
    return Recipe(**payload).expand()


def grid_blocks(kernels=("crc32", "sha", "qsort"), per_block=1):
    """Blocks of ``per_block`` cells over :func:`grid_cells`."""
    return build_blocks(grid_cells(kernels),
                        BLOCK_INSTRUCTIONS // per_block)


def cells_of(blocks):
    return [cell for block in blocks for cell in block.cells]


class TestOrdering:
    def test_groups_cover_all_cells_once(self):
        cells = grid_cells()
        groups = group_by_trace(cells)
        flat = [cell.cell_id for group in groups for cell in group]
        assert sorted(flat) == sorted(cell.cell_id for cell in cells)
        assert len(flat) == len(set(flat))

    def test_groups_are_single_trace(self):
        for group in group_by_trace(grid_cells()):
            assert len({cell.trace_key for cell in group}) == 1

    def test_hierarchy_outermost_sort(self):
        # Within a trace group, all cells sharing a cache hierarchy are
        # contiguous: the expensive bank is derived once per block.
        [group] = group_by_trace(grid_cells(kernels=("crc32",)))
        hierarchies = [repr(cell.config.l1d) for cell in group]
        seen = []
        for value in hierarchies:
            if not seen or seen[-1] != value:
                seen.append(value)
        assert len(seen) == len(set(seen)) == 2

    def test_order_is_deterministic(self):
        a = [cell.cell_id for cell in order_cells(grid_cells())]
        b = [cell.cell_id for cell in order_cells(grid_cells())]
        assert a == b

    def test_affinity_key_total_order(self):
        cells = grid_cells(kernels=("crc32",))
        keys = [affinity_key(cell) for cell in cells]
        assert len(set(keys)) == len(keys)


class TestBlocks:
    def test_blocks_cover_all_cells_once_in_affinity_order(self):
        blocks = grid_blocks(per_block=3)
        assert [cell.cell_id for cell in cells_of(blocks)] == \
            [cell.cell_id for cell in order_cells(grid_cells())]

    def test_blocks_never_span_traces(self):
        for block in grid_blocks(per_block=3):
            assert len({cell.trace_key for cell in block.cells}) == 1

    def test_group_split_into_near_equal_blocks(self):
        # 8 cells per trace, at most 3 per block: 3 blocks of 2-3.
        blocks = grid_blocks(kernels=("crc32",), per_block=3)
        assert [len(block) for block in blocks] == [2, 3, 3]

    def test_size_follows_cell_instructions(self):
        cells = grid_cells(kernels=("crc32",))
        assert len(build_blocks(cells, BLOCK_INSTRUCTIONS)) == 8
        assert len(build_blocks(cells, BLOCK_INSTRUCTIONS * 10)) == 8
        assert len(build_blocks(cells, 1)) == 1

    def test_recipe_blocks_use_the_pipeline_cap(self):
        recipe = Recipe(name="sched", kernels=["crc32"],
                        pipeline_cap=BLOCK_INSTRUCTIONS // 4,
                        axes={"width": [1, 2, 4, 8, 16, 32, 64, 128]})
        assert [len(block)
                for block in recipe_blocks(recipe, recipe.expand())] == \
            [4, 4]
        # No pipeline cap: a cell may time its whole trace, bounded only
        # by the functional cap.
        uncapped = Recipe(name="sched", kernels=["crc32"],
                          axes={"width": [1, 2]})
        assert [len(block) for block in
                recipe_blocks(uncapped, uncapped.expand())] == [1, 1]

    def test_block_ids_distinct_and_deterministic(self):
        a = [block.block_id for block in grid_blocks(per_block=3)]
        b = [block.block_id for block in grid_blocks(per_block=3)]
        assert a == b
        assert len(set(a)) == len(a)
        cell_ids = {cell.cell_id for cell in grid_cells()}
        assert not set(a) & cell_ids


class TestSharding:
    def test_shards_partition_exactly(self):
        blocks = grid_blocks(per_block=3)
        shards = build_shards(blocks, 2)
        flat = [cell.cell_id for shard in shards for cell in cells_of(shard)]
        assert sorted(flat) == sorted(cell.cell_id for cell in grid_cells())

    def test_trace_groups_never_split(self):
        shards = build_shards(grid_blocks(per_block=3), 2)
        placement = {}
        for index, shard in enumerate(shards):
            for cell in cells_of(shard):
                placement.setdefault(cell.trace_key, set()).add(index)
        assert all(len(where) == 1 for where in placement.values())

    def test_lpt_balances_equal_groups(self):
        # 3 equal-size trace groups over 3 shards: one each.
        shards = build_shards(grid_blocks(per_block=3), 3)
        assert sorted(len(cells_of(shard)) for shard in shards) == [8, 8, 8]

    def test_more_shards_than_groups_leaves_empties(self):
        shards = build_shards(grid_blocks(kernels=("crc32",)), 4)
        assert len(shards) == 4
        assert sorted(len(cells_of(shard)) for shard in shards) == \
            [0, 0, 0, 8]

    def test_deterministic(self):
        a = build_shards(grid_blocks(per_block=3), 2)
        b = build_shards(grid_blocks(per_block=3), 2)
        assert [[block.block_id for block in shard] for shard in a] == \
            [[block.block_id for block in shard] for shard in b]


class TestStealing:
    def test_steals_from_tail_of_heaviest(self):
        shards = build_shards(grid_blocks(), 3)
        # Pretend shard 1 has finished half its work.
        done = {block.block_id for block in shards[1][:4]}
        order = list(steal_candidates(
            shards, 2, lambda block: block.block_id not in done))
        # First candidate: tail block of a full (8-pending) victim shard.
        full_victim = shards[0]
        assert order[0].block_id == full_victim[-1].block_id
        # The half-done victim's blocks all come after the full victim's.
        positions = {block.block_id: index
                     for index, block in enumerate(order)}
        assert max(positions[block.block_id] for block in full_victim) < \
            min(positions[block.block_id] for block in shards[1][4:])

    def test_own_shard_excluded(self):
        shards = build_shards(grid_blocks(), 3)
        own = {block.block_id for block in shards[0]}
        stolen = {block.block_id for block in
                  steal_candidates(shards, 0, lambda block: True)}
        assert not stolen & own

    def test_empty_when_nothing_remains(self):
        shards = build_shards(grid_blocks(), 2)
        assert list(steal_candidates(shards, 0, lambda block: False)) == []
