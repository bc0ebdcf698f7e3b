#!/usr/bin/env python3
"""Generate docs/api.md from the package's docstrings.

A dependency-free API reference: walks ``repro``'s public surface
(everything in each module's ``__all__``), pulls signatures via
``inspect``, and emits one Markdown section per module.  Run after any
public-API change::

    python tools/gen_api_docs.py

The output is committed (docs/api.md) so the reference is readable
without executing anything.  CI runs ``--check``, which regenerates in
memory, diffs against the committed file, and exits non-zero on drift —
so the reference cannot silently fall behind the code.  ``--check``
also enforces docs *coverage*: every public module under ``src/repro/``
must be listed in :data:`MODULES` (= have a docs/api.md section) and
carry a module docstring, so a new subsystem cannot land undocumented.
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import inspect
import sys
from pathlib import Path

MODULES = [
    "repro",
    "repro.errors",
    "repro.hashing",
    "repro.hashing.mixers",
    "repro.hashing.encoders",
    "repro.hashing.families",
    "repro.hashing.tabulation",
    "repro.hashing.bit_budget",
    "repro.memmodel",
    "repro.memmodel.accounting",
    "repro.memmodel.memory",
    "repro.memmodel.packed",
    "repro.memmodel.banked",
    "repro.memmodel.pipeline",
    "repro.filters",
    "repro.filters.base",
    "repro.filters.bloom",
    "repro.filters.one_access",
    "repro.filters.cbf",
    "repro.filters.pcbf",
    "repro.filters.hcbf_word",
    "repro.filters.mpcbf",
    "repro.filters.dlcbf",
    "repro.filters.vicbf",
    "repro.filters.spectral",
    "repro.filters.factory",
    "repro.kernels",
    "repro.kernels.columnar",
    "repro.kernels.scalar",
    "repro.kernels.grouped",
    "repro.kernels.shmem",
    "repro.analysis",
    "repro.analysis.fpr",
    "repro.analysis.overflow",
    "repro.analysis.optimal",
    "repro.analysis.heuristics",
    "repro.analysis.bandwidth",
    "repro.analysis.tradeoffs",
    "repro.analysis.saturation",
    "repro.workloads",
    "repro.workloads.synthetic",
    "repro.workloads.traces",
    "repro.workloads.patents",
    "repro.workloads.runner",
    "repro.workloads.churn",
    "repro.workloads.adversarial",
    "repro.mapreduce",
    "repro.mapreduce.engine",
    "repro.mapreduce.cache",
    "repro.mapreduce.cost",
    "repro.mapreduce.join",
    "repro.parallel",
    "repro.parallel.sharded",
    "repro.apps",
    "repro.apps.lpm",
    "repro.apps.flow_measurement",
    "repro.apps.classifier",
    "repro.serialize",
    "repro.service",
    "repro.service.protocol",
    "repro.service.batching",
    "repro.service.server",
    "repro.service.client",
    "repro.service.metrics",
    "repro.service.snapshot",
    "repro.service.storage",
    "repro.service.transport",
    "repro.overload",
    "repro.overload.deadline",
    "repro.overload.admission",
    "repro.overload.breaker",
    "repro.cluster",
    "repro.cluster.wal",
    "repro.cluster.replication",
    "repro.cluster.node",
    "repro.cluster.router",
    "repro.cluster.cluster_client",
    "repro.chaos",
    "repro.chaos.clock",
    "repro.chaos.network",
    "repro.chaos.storage",
    "repro.chaos.schedule",
    "repro.chaos.runner",
    "repro.rebalance",
    "repro.rebalance.epochs",
    "repro.rebalance.migrator",
    "repro.rebalance.coordinator",
    "repro.observability",
    "repro.observability.prometheus",
    "repro.observability.httpd",
    "repro.observability.logging",
    "repro.observability.spans",
    "repro.bench",
    "repro.bench.experiments",
    "repro.bench.ablations",
    "repro.bench.reporting",
    "repro.bench.export",
    "repro.bench.scale",
    "repro.cli",
]


def discover_public_modules() -> list[str]:
    """Every importable public module under ``src/repro/``.

    A module is public unless any dotted-path component starts with an
    underscore (``repro.bench.__main__`` is an entry point, not API).
    """
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    names = []
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if any(part.startswith("_") for part in parts):
            continue
        names.append(".".join(parts))
    return names


def coverage_errors() -> list[str]:
    """The docs-coverage gate: every public module is documented.

    Two ways a module fails: it is not listed in :data:`MODULES` (so
    docs/api.md has no section for it — new subsystems must opt in
    here), or it has no module docstring (so its section would say
    nothing).
    """
    errors = []
    listed = set(MODULES)
    for name in discover_public_modules():
        module = importlib.import_module(name)
        if name not in listed:
            errors.append(
                f"{name}: not in tools/gen_api_docs.py MODULES — "
                f"docs/api.md has no section for it"
            )
        if not (module.__doc__ or "").strip():
            errors.append(f"{name}: missing module docstring")
    return errors


def _first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    return inspect.cleandoc(doc).split("\n\n")[0].replace("\n", " ")


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _members(cls) -> dict:
    """Members of ``cls``, including those of its private (``_``-named)
    bases: those are reachable only through public subclasses, so they
    are documented there."""
    members: dict = {}
    for klass in reversed(cls.__mro__):
        if klass is cls or klass.__name__.startswith("_"):
            members.update(vars(klass))
    return members


def _describe_class(cls) -> list[str]:
    lines = [f"#### class `{cls.__name__}`", "", _first_paragraph(cls.__doc__), ""]
    methods = []
    for name, member in sorted(_members(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            methods.append(f"- `.{name}` (property) — {_first_paragraph(member.__doc__)}")
        elif inspect.isfunction(member):
            methods.append(
                f"- `.{name}{_signature(member)}` — {_first_paragraph(member.__doc__)}"
            )
        elif isinstance(member, staticmethod):
            fn = member.__func__
            methods.append(
                f"- `.{name}{_signature(fn)}` (static) — {_first_paragraph(fn.__doc__)}"
            )
    if methods:
        lines += methods + [""]
    return lines


def generate() -> str:
    out = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py` — do not edit by hand.",
        "",
    ]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        out.append(f"## `{module_name}`")
        out.append("")
        out.append(_first_paragraph(module.__doc__))
        out.append("")
        public = list(getattr(module, "__all__", []))
        for name in public:
            obj = getattr(module, name, None)
            if obj is None:
                continue
            # Skip re-exports documented at their home module.
            home = getattr(obj, "__module__", module_name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if home != module_name:
                    continue
            if inspect.isclass(obj):
                out += _describe_class(obj)
            elif inspect.isfunction(obj):
                out.append(
                    f"#### `{name}{_signature(obj)}`"
                )
                out.append("")
                out.append(_first_paragraph(obj.__doc__))
                out.append("")
            else:
                out.append(f"- `{name}` — {type(obj).__name__}")
        out.append("")
    return "\n".join(out)


def check(target: Path) -> int:
    """Exit 0 iff the reference is complete and matches a fresh build."""
    gaps = coverage_errors()
    if gaps:
        for gap in gaps:
            print(f"docs coverage: {gap}", file=sys.stderr)
        return 1
    fresh = generate()
    committed = target.read_text() if target.exists() else ""
    if committed == fresh:
        print(f"{target} is up to date")
        return 0
    diff = difflib.unified_diff(
        committed.splitlines(keepends=True),
        fresh.splitlines(keepends=True),
        fromfile=str(target),
        tofile="generated",
    )
    sys.stdout.writelines(diff)
    print(
        f"\n{target} is stale — run `python tools/gen_api_docs.py` "
        "and commit the result",
        file=sys.stderr,
    )
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="diff against the committed docs/api.md; exit 1 on drift",
    )
    args = parser.parse_args(argv)
    target = Path(__file__).resolve().parent.parent / "docs" / "api.md"
    if args.check:
        return check(target)
    target.parent.mkdir(exist_ok=True)
    target.write_text(generate())
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
