"""Recipe expansion: determinism, stable cell ids, validation."""

import json

import pytest

from repro.fleet import Recipe, RecipeError, load_recipe, save_recipe
from repro.fleet.recipe import recipe_from_dict
from repro.uarch import BASE_CONFIG


def grid_recipe(**overrides):
    payload = {
        "name": "grid",
        "kernels": ["crc32", "sha"],
        "pipeline_cap": 20_000,
        "axes": {"width": [1, 2], "predictor": ["gap", "nottaken"]},
    }
    payload.update(overrides)
    return Recipe(**payload)


class TestExpansion:
    def test_deterministic(self):
        a = grid_recipe().expand()
        b = grid_recipe().expand()
        assert [cell.cell_id for cell in a] == [cell.cell_id for cell in b]
        assert [cell.to_dict() for cell in a] == [cell.to_dict() for cell in b]

    def test_kernel_major_trace_contiguity(self):
        cells = grid_recipe().expand()
        assert len(cells) == 2 * 4
        # All cells sharing a trace are contiguous in expansion order.
        seen = []
        for cell in cells:
            if not seen or seen[-1] != cell.trace_key:
                seen.append(cell.trace_key)
        assert len(seen) == len(set(seen)) == 2

    def test_axes_expand_last_axis_fastest(self):
        names = [config.name for config in grid_recipe().expand_configs()]
        assert names == [
            "width=1,predictor=gap", "width=1,predictor=nottaken",
            "width=2,predictor=gap", "width=2,predictor=nottaken",
        ]

    def test_indices_are_expansion_order(self):
        cells = grid_recipe().expand()
        assert [cell.index for cell in cells] == list(range(len(cells)))

    def test_base_overrides_apply_to_every_config(self):
        recipe = grid_recipe(base={"rob_size": 4})
        for config in recipe.expand_configs():
            assert config.rob_size == 4

    def test_explicit_configs_appended(self):
        recipe = grid_recipe(configs=[{"name": "big-l1d",
                                       "l1d": [32768, 4, 32]}])
        configs = recipe.expand_configs()
        assert configs[-1].name == "big-l1d"
        assert configs[-1].l1d.size == 32768
        assert configs[-1].l1d.assoc == 4

    def test_no_axes_times_base_config_once(self):
        recipe = Recipe(name="solo", kernels=["crc32"])
        configs = recipe.expand_configs()
        assert len(configs) == 1
        assert configs[0].width == BASE_CONFIG.width

    def test_null_l2_allowed(self):
        recipe = Recipe(name="nol2", kernels=["crc32"],
                        axes={"l2": [None, [65536, 4, 64]]})
        configs = recipe.expand_configs()
        assert configs[0].l2 is None
        assert configs[1].l2.size == 65536


class TestCellIds:
    def test_id_captures_config(self):
        wide = Recipe(name="a", kernels=["crc32"], axes={"width": [2]})
        narrow = Recipe(name="a", kernels=["crc32"], axes={"width": [1]})
        assert wide.expand()[0].cell_id != narrow.expand()[0].cell_id

    def test_id_captures_pipeline_cap(self):
        a = Recipe(name="a", kernels=["crc32"], pipeline_cap=10_000)
        b = Recipe(name="a", kernels=["crc32"], pipeline_cap=20_000)
        assert a.expand()[0].cell_id != b.expand()[0].cell_id

    def test_id_captures_subject_and_seed(self):
        real = Recipe(name="a", kernels=["crc32"], subject="real")
        clone = Recipe(name="a", kernels=["crc32"], subject="clone")
        reseeded = Recipe(name="a", kernels=["crc32"], subject="clone",
                          seeds=[7])
        ids = {recipe.expand()[0].cell_id
               for recipe in (real, clone, reseeded)}
        assert len(ids) == 3

    def test_id_ignores_recipe_name(self):
        # Cell identity is the cell's physics, not the matrix label.
        a = Recipe(name="a", kernels=["crc32"])
        b = Recipe(name="b", kernels=["crc32"])
        assert a.expand()[0].cell_id == b.expand()[0].cell_id

    def test_axes_order_is_semantic(self):
        # Order defines expansion order, so it must survive the save/
        # load round trip and be captured by the digest.
        ab = grid_recipe(axes={"width": [1, 2], "rob_size": [8, 16]})
        ba = grid_recipe(axes={"rob_size": [8, 16], "width": [1, 2]})
        assert ab.digest() != ba.digest()
        assert [c.name for c in ab.expand_configs()] != \
            [c.name for c in ba.expand_configs()]

    def test_axes_accepts_pair_list(self):
        pairs = grid_recipe(axes=[["width", [1, 2]],
                                  ["predictor", ["gap", "nottaken"]]])
        assert pairs.digest() == grid_recipe().digest()

    def test_digest_captures_everything(self):
        assert grid_recipe().digest() == grid_recipe().digest()
        assert grid_recipe().digest() != \
            grid_recipe(pipeline_cap=30_000).digest()
        assert grid_recipe().digest() != grid_recipe(name="other").digest()


class TestValidation:
    def test_unknown_axis_field(self):
        with pytest.raises(RecipeError, match="unknown config field"):
            Recipe(name="x", kernels=["crc32"], axes={"wdith": [1]})

    def test_unknown_base_field(self):
        with pytest.raises(RecipeError, match="unknown config field"):
            Recipe(name="x", kernels=["crc32"], base={"robsize": 4})

    def test_bad_subject(self):
        with pytest.raises(RecipeError, match="subject"):
            Recipe(name="x", kernels=["crc32"], subject="imaginary")

    def test_needs_kernels(self):
        with pytest.raises(RecipeError, match="kernel"):
            Recipe(name="x", kernels=[])

    def test_duplicate_config_names(self):
        recipe = Recipe(name="x", kernels=["crc32"],
                        configs=[{"name": "dup", "width": 1},
                                 {"name": "dup", "width": 2}])
        with pytest.raises(RecipeError, match="duplicate"):
            recipe.expand_configs()

    def test_unknown_recipe_key(self):
        with pytest.raises(RecipeError, match="unknown recipe keys"):
            recipe_from_dict({"name": "x", "kernels": ["crc32"],
                              "kernel": ["typo"]})

    def test_schema_mismatch(self):
        with pytest.raises(RecipeError, match="schema"):
            recipe_from_dict({"schema": 99, "name": "x",
                              "kernels": ["crc32"]})

    def test_bad_cache_spec(self):
        recipe = Recipe(name="x", kernels=["crc32"],
                        axes={"l1d": [[1024]]})
        with pytest.raises(RecipeError, match="size, assoc, line"):
            recipe.expand_configs()

    def test_l1d_line_must_be_power_of_two(self):
        recipe = recipe_from_dict({"name": "x", "kernels": ["crc32"],
                                   "axes": {"l1d": [[480, 1, 48]]}})
        with pytest.raises(RecipeError,
                           match="l1d: line size must be a power of two"):
            recipe.expand_configs()

    def test_l1d_cannot_be_null(self):
        recipe = Recipe(name="x", kernels=["crc32"], axes={"l1d": [None]})
        with pytest.raises(RecipeError, match="cannot be null"):
            recipe.expand_configs()


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        recipe = grid_recipe(base={"rob_size": 8},
                             configs=[{"name": "big", "width": 4}])
        path = tmp_path / "recipe.json"
        save_recipe(recipe, str(path))
        loaded = load_recipe(str(path))
        assert loaded.digest() == recipe.digest()
        assert [cell.cell_id for cell in loaded.expand()] == \
            [cell.cell_id for cell in recipe.expand()]

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("[1, 2]")
        with pytest.raises(RecipeError, match="JSON object"):
            load_recipe(str(path))

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{nope")
        with pytest.raises(RecipeError, match="not valid JSON"):
            load_recipe(str(path))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(RecipeError, match="cannot read"):
            load_recipe(str(tmp_path / "absent.json"))

    def test_saved_form_is_canonical_json(self, tmp_path):
        recipe = grid_recipe()
        path = tmp_path / "recipe.json"
        save_recipe(recipe, str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert payload["kernels"] == ["crc32", "sha"]
