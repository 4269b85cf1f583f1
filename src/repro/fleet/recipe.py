"""Declarative experiment recipes: kernel × config × seed matrices.

A recipe is a JSON document describing one experiment matrix — which
workload kernels to time (real trace or synthesized clone), which
machine configurations (a base override plus cartesian knob axes plus
optional explicit configs), and which synthesis seeds.  ``expand``
turns it into a flat, deterministic list of :class:`Cell` objects whose
ids are content hashes of everything that determines the cell's result,
so the same recipe always expands to the same cells in the same order —
the contract the fleet queue's resume path and the byte-identical
matrix export both stand on.

Example::

    {
      "name": "fig6-grid",
      "kernels": ["crc32", "sha", "qsort"],
      "subject": "real",
      "seeds": [0],
      "pipeline_cap": 60000,
      "base": {"rob_size": 16},
      "axes": {"width": [1, 2], "predictor": ["gap", "nottaken"]},
      "configs": [{"name": "big-l1d", "l1d": [32768, 4, 32]}]
    }

Axes expand in listed order (last axis fastest), after which explicit
``configs`` entries are appended; cells enumerate kernel-major, then
seed, then config, so all cells sharing a trace are contiguous in
expansion order.
"""

import dataclasses
import hashlib
import itertools
import json

from repro.uarch.cache import CacheConfig
from repro.uarch.config import BASE_CONFIG, MachineConfig

#: Bump when the recipe schema or cell-id material changes; embedded in
#: every cell id so old runs can never alias into new semantics.
RECIPE_SCHEMA_VERSION = 1

#: Cell subjects: time the real workload's trace or its clone's.
SUBJECTS = ("real", "clone")

_CONFIG_FIELDS = {field.name for field in dataclasses.fields(MachineConfig)}
_CACHE_FIELDS = ("l1i", "l1d", "l2")


class RecipeError(ValueError):
    """A recipe that cannot be expanded (unknown fields, bad values)."""


def _coerce_cache(field_name, value):
    """JSON cache spec -> CacheConfig: [size, assoc, line] or null."""
    if value is None:
        if field_name == "l2":
            return None
        raise RecipeError(f"{field_name} cannot be null")
    if isinstance(value, CacheConfig):
        return value
    try:
        size, assoc, line = value
    except (TypeError, ValueError):
        raise RecipeError(
            f"{field_name} must be [size, assoc, line], got {value!r}"
        ) from None
    if assoc != "full":
        assoc = int(assoc)
    try:
        return CacheConfig(int(size), assoc, int(line))
    except ValueError as exc:
        raise RecipeError(f"{field_name}: {exc}") from None


def _coerce_field(name, value):
    if name not in _CONFIG_FIELDS:
        raise RecipeError(
            f"unknown config field {name!r} "
            f"(valid: {', '.join(sorted(_CONFIG_FIELDS))})")
    if name in _CACHE_FIELDS:
        return _coerce_cache(name, value)
    if name == "predictor_kwargs":
        return dict(value)
    return value


def _config_from(base, overrides, name):
    changes = {field: _coerce_field(field, value)
               for field, value in overrides.items() if field != "name"}
    return base.renamed(name, **changes)


def _axis_label(field, value):
    if field in _CACHE_FIELDS:
        if value is None:
            return f"{field}=none"
        cache = _coerce_cache(field, value)
        return f"{field}={cache.size}x{cache.assoc}x{cache.line}"
    return f"{field}={value}"


def _cache_json(cache):
    if cache is None:
        return None
    return [cache.size, cache.assoc, cache.line]


def config_to_json(config):
    """A MachineConfig as the recipe format's plain-JSON dict."""
    payload = {}
    for field in dataclasses.fields(MachineConfig):
        value = getattr(config, field.name)
        if field.name in _CACHE_FIELDS:
            value = _cache_json(value)
        payload[field.name] = value
    return payload


@dataclasses.dataclass(frozen=True)
class Cell:
    """One (kernel, subject, seed, config) point of the matrix."""

    index: int
    cell_id: str
    kernel: str
    subject: str
    seed: int
    config: MachineConfig

    @property
    def trace_key(self):
        """Cells with equal trace keys time the exact same trace."""
        return (self.kernel, self.subject, self.seed)

    def to_dict(self):
        return {
            "index": self.index,
            "cell_id": self.cell_id,
            "kernel": self.kernel,
            "subject": self.subject,
            "seed": self.seed,
            "config": config_to_json(self.config),
        }


@dataclasses.dataclass
class Recipe:
    """A parsed experiment matrix description."""

    name: str
    kernels: list
    subject: str = "real"
    seeds: tuple = (0,)
    #: Functional-simulation *safety* cap (workloads run to natural
    #: termination; exceeding this raises, it never truncates).
    functional_cap: int = 20_000_000
    #: Timing-simulation instruction budget per cell (None = full trace).
    pipeline_cap: int = None
    base: dict = dataclasses.field(default_factory=dict)
    axes: dict = dataclasses.field(default_factory=dict)
    configs: list = dataclasses.field(default_factory=list)

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise RecipeError("recipe needs a non-empty string name")
        # Axes order is semantic (it defines expansion order), so the
        # canonical serialized form is a list of [field, values] pairs —
        # immune to key-sorting serializers.  Plain JSON objects are
        # accepted too (json.load preserves their order).
        if not isinstance(self.axes, dict):
            try:
                self.axes = dict(self.axes)
            except (TypeError, ValueError):
                raise RecipeError(
                    f"axes must be a mapping or [field, values] pairs, "
                    f"got {self.axes!r}") from None
        if not self.kernels:
            raise RecipeError("recipe needs at least one kernel")
        if self.subject not in SUBJECTS:
            raise RecipeError(
                f"subject must be one of {SUBJECTS}, got {self.subject!r}")
        self.seeds = tuple(int(seed) for seed in self.seeds)
        if not self.seeds:
            raise RecipeError("recipe needs at least one seed")
        if not self.axes and not self.configs and not self.base:
            # A matrix with no config axis still times BASE_CONFIG once.
            self.base = {}
        for field in list(self.base) + list(self.axes):
            if field == "name" or field not in _CONFIG_FIELDS:
                raise RecipeError(f"unknown config field {field!r}")

    # ------------------------------------------------------------------
    def to_dict(self):
        return {
            "schema": RECIPE_SCHEMA_VERSION,
            "name": self.name,
            "kernels": list(self.kernels),
            "subject": self.subject,
            "seeds": list(self.seeds),
            "functional_cap": self.functional_cap,
            "pipeline_cap": self.pipeline_cap,
            "base": dict(self.base),
            "axes": [[field, list(values)]
                     for field, values in self.axes.items()],
            "configs": [dict(entry) for entry in self.configs],
        }

    def digest(self):
        """Content hash of the whole recipe (resume-compatibility key)."""
        material = json.dumps(self.to_dict(), sort_keys=True, default=str)
        return hashlib.sha256(material.encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    def expand_configs(self):
        """The config list, in deterministic expansion order."""
        base = _config_from(BASE_CONFIG, self.base,
                            "base" if not self.base else "base+" + ",".join(
                                _axis_label(field, value)
                                for field, value in self.base.items()))
        configs = []
        if self.axes:
            fields = list(self.axes)
            for values in itertools.product(
                    *(self.axes[field] for field in fields)):
                overrides = dict(zip(fields, values))
                label = ",".join(_axis_label(field, value)
                                 for field, value in overrides.items())
                configs.append(_config_from(base, overrides, label))
        else:
            configs.append(base)
        for entry in self.configs:
            entry = dict(entry)
            label = entry.pop("name", None)
            if label is None:
                label = ",".join(_axis_label(field, value)
                                 for field, value in entry.items()) or "base"
            configs.append(_config_from(base, entry, label))
        names = [config.name for config in configs]
        if len(set(names)) != len(names):
            raise RecipeError(f"duplicate config names in expansion: "
                              f"{sorted(set(n for n in names if names.count(n) > 1))}")
        return configs

    def expand(self):
        """The full deterministic cell list (kernel-major, stable ids)."""
        configs = self.expand_configs()
        cells = []
        for kernel in self.kernels:
            for seed in self.seeds:
                for config in configs:
                    cells.append(self._cell(len(cells), kernel, seed,
                                            config))
        return cells

    def _cell(self, index, kernel, seed, config):
        material = json.dumps({
            "schema": RECIPE_SCHEMA_VERSION,
            "kernel": kernel,
            "subject": self.subject,
            "seed": seed,
            "functional_cap": self.functional_cap,
            "pipeline_cap": self.pipeline_cap,
            "config": config_to_json(config),
        }, sort_keys=True, default=str)
        digest = hashlib.sha256(material.encode()).hexdigest()[:12]
        safe = "".join(ch if ch.isalnum() or ch in "._-" else "_"
                       for ch in f"{kernel}-s{seed}")[:40]
        return Cell(index=index, cell_id=f"{safe}-{digest}",
                    kernel=kernel, subject=self.subject, seed=seed,
                    config=config)


def recipe_from_dict(payload):
    """Parse the recipe JSON object (schema-checked)."""
    payload = dict(payload)
    schema = payload.pop("schema", RECIPE_SCHEMA_VERSION)
    if schema != RECIPE_SCHEMA_VERSION:
        raise RecipeError(f"recipe schema {schema} != "
                          f"{RECIPE_SCHEMA_VERSION}")
    known = {field.name for field in dataclasses.fields(Recipe)}
    unknown = set(payload) - known
    if unknown:
        raise RecipeError(f"unknown recipe keys: {sorted(unknown)}")
    return Recipe(**payload)


def load_recipe(path):
    """Read and parse a recipe JSON file."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise RecipeError(f"cannot read recipe {path}: {exc}") from exc
    except ValueError as exc:
        raise RecipeError(f"recipe {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise RecipeError(f"recipe {path} must be a JSON object")
    return recipe_from_dict(payload)


def save_recipe(recipe, path):
    """Write the canonical JSON form (what ``digest`` hashes)."""
    with open(path, "w") as handle:
        json.dump(recipe.to_dict(), handle, indent=2, sort_keys=True,
                  default=str)
        handle.write("\n")
