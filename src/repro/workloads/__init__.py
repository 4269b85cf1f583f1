"""The embedded workload corpus (Table 1 stand-ins).

23 real algorithm kernels across the paper's application domains, written
in SRISC assembly with deterministic seeded inputs.  Each one plays the
role of a "real world proprietary application" to be cloned.

Use :func:`get_workload` / :func:`build_workload` for one program and
:func:`all_workloads` for the whole suite.
"""

from dataclasses import dataclass

from repro.isa.assembler import assemble_shared

_SOURCES = {}  # spec -> source: deterministic, so generated once


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry for one workload kernel."""

    name: str
    domain: str
    suite: str  # "mibench" or "mediabench"
    description: str
    source_builder: object

    def source(self):
        """Generate the workload's assembly source (deterministic)."""
        if self not in _SOURCES:
            _SOURCES[self] = self.source_builder()
        return _SOURCES[self]

    def build(self):
        """Assemble the workload into an executable Program (shared)."""
        return assemble_shared(self.source(), self.name)


def _registry():
    from repro.workloads import (automotive, consumer, media, network,
                                 office, security, telecom)
    modules = (automotive, network, security, telecom, office, consumer,
               media)
    registry = {}
    for module in modules:
        for name, domain, suite, builder, description in module.SPECS:
            if name in registry:
                raise ValueError(f"duplicate workload name {name!r}")
            registry[name] = WorkloadSpec(
                name=name, domain=domain, suite=suite,
                description=description, source_builder=builder)
    return registry


_REGISTRY = None


def registry():
    """Name -> WorkloadSpec for the whole corpus (built lazily)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _registry()
    return _REGISTRY


def workload_names():
    return sorted(registry())


def get_workload(name):
    try:
        return registry()[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {workload_names()}"
        ) from None


def build_workload(name):
    """Assemble one workload by name."""
    return get_workload(name).build()


def all_workloads():
    """All specs, sorted by (domain, name) like the paper's Table 1."""
    return sorted(registry().values(),
                  key=lambda spec: (spec.domain, spec.name))


def domains():
    """Domain -> [workload names], the Table 1 grouping."""
    table = {}
    for spec in all_workloads():
        table.setdefault(spec.domain, []).append(spec.name)
    return table
