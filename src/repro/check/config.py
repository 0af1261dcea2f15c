"""Repo-specific analyzer configuration: the contract, as data.

Everything the rules need to know about *this* repository lives here:
which modules promise determinism, which are allowed to read the wall
clock, which RNG construction sites are sanctioned (each with a
written justification — the allowlist doubles as the grep-able
registry of every seeding site in the tree), and which hot-path
modules are version-pinned.

Tests construct custom :class:`CheckConfig` instances to point the
rules at fixture trees; the CLI always uses :func:`default_config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = ["AllowedRng", "CheckConfig", "default_config", "module_key"]


def module_key(path) -> str:
    """Canonical ``repro/...`` key for a scanned file.

    Rules match modules by this key so the same configuration applies
    whether the tree is scanned as ``src/repro/...``, installed, or
    copied into a tmp fixture directory.  Files outside a ``repro``
    package keep their name as the key.
    """
    parts = Path(path).as_posix().split("/")
    for idx in range(len(parts) - 1, -1, -1):
        if parts[idx] == "repro":
            return "/".join(parts[idx:])
    return parts[-1]


@dataclass(frozen=True)
class AllowedRng:
    """One sanctioned RNG construction site (rule DET001).

    ``module`` is a :func:`module_key`; ``name`` the imported/called
    symbol (``SeedSequence``, ``default_rng``, ``Generator``).  The
    justification is mandatory: the allowlist is the audit trail for
    every RNG in the deterministic tree.
    """

    module: str
    name: str
    justification: str


#: Every sanctioned RNG site in today's tree.  Adding an entry is a
#: review event: the justification must say where the seed comes from.
_RNG_ALLOWLIST: Tuple[AllowedRng, ...] = (
    AllowedRng(
        "repro/campaign/spec.py",
        "SeedSequence",
        "spawn_seeds() is THE sanctioned derivation primitive: every "
        "campaign seed is a SeedSequence(root).spawn(n) child drawn "
        "in the submitting process",
    ),
    AllowedRng(
        "repro/campaign/failures.py",
        "SeedSequence",
        "deterministic retry backoff: jitter is a pure function of "
        "(spec seed, attempt) via SeedSequence([seed, attempt])",
    ),
    AllowedRng(
        "repro/campaign/failures.py",
        "default_rng",
        "seeded from the SeedSequence above; no OS entropy",
    ),
    AllowedRng(
        "repro/faults.py",
        "SeedSequence",
        "fault plans replay exactly: per-rule streams are "
        "SeedSequence([plan.seed, rule_position])",
    ),
    AllowedRng(
        "repro/faults.py",
        "default_rng",
        "seeded from the per-rule SeedSequence above",
    ),
    AllowedRng(
        "repro/campaign/runner.py",
        "default_rng",
        "near-optimal search rng is seeded with spec.seed",
    ),
    AllowedRng(
        "repro/taskgraph/tgff.py",
        "default_rng",
        "seed-or-Generator coercion front door (_rng); every "
        "campaign path passes an explicit int seed",
    ),
    AllowedRng(
        "repro/workloads/generator.py",
        "SeedSequence",
        "job-keyed actuals draw from SeedSequence([seed, graph_key, "
        "node_key, j]) — the documented per-job stream identity",
    ),
    AllowedRng(
        "repro/workloads/generator.py",
        "default_rng",
        "seeded from the job-keyed SeedSequence / explicit int seed",
    ),
    AllowedRng(
        "repro/battery/stochastic.py",
        "default_rng",
        "the stochastic cell is seeded per spec (battery_seed); draw "
        "order is the model's semantics",
    ),
    AllowedRng(
        "repro/core/priority.py",
        "default_rng",
        "RandomPriority is seeded per scenario; its stream is part "
        "of the pinned trace identity",
    ),
    AllowedRng(
        "repro/sim/vector.py",
        "Generator",
        "reconstructs the scalar engine's RNG from captured PCG64 "
        "bit-state for bitwise replay — no fresh entropy",
    ),
)

#: Modules whose entire purpose is wall-clock machinery (leases,
#: heartbeats, autoscaling).  DET002 skips them wholesale; everything
#: else needs a per-site pragma.
_WALLCLOCK_MODULES: Tuple[str, ...] = (
    "repro/campaign/distributed/broker.py",
    "repro/campaign/distributed/worker.py",
    "repro/faults.py",
)

#: Modules under the determinism contract (DET002): a wall-clock read
#: here can leak nondeterminism into results or cache keys.
_DETERMINISTIC_PREFIXES: Tuple[str, ...] = (
    "repro/sim/",
    "repro/battery/",
    "repro/dvs/",
    "repro/api/",
    "repro/core/",
    "repro/taskgraph/",
    "repro/workloads/",
    "repro/processor/",
    "repro/multiproc/",
    "repro/exact/",
    "repro/analysis/",
    "repro/campaign/",
)

#: Modules under the bit-identity contract (DET004): float reductions
#: here must preserve the sequential ``+=`` accumulation order the
#: golden traces and frame aggregates pin.
_BIT_IDENTITY_PREFIXES: Tuple[str, ...] = (
    "repro/sim/",
    "repro/battery/",
    "repro/dvs/",
    "repro/core/",
    "repro/taskgraph/",
    "repro/workloads/",
    "repro/processor/",
    "repro/multiproc/",
    "repro/exact/",
    "repro/analysis/",
    "repro/api/",
)

#: VER001: version-pinned hot-path modules -> the KERNEL_VERSIONS keys
#: (or the "protocol" pseudo-key) that must be bumped when any pinned
#: function body in the module changes.
_VERSIONED_MODULES: Dict[str, Tuple[str, ...]] = {
    "repro/battery/kernels.py": (
        "diffusion",
        "kibam",
        "peukert",
        "scalar",
    ),
    "repro/battery/base.py": ("scalar",),
    "repro/battery/stochastic.py": ("scalar",),
    "repro/sim/engine.py": ("engine",),
    "repro/sim/state.py": ("engine",),
    "repro/sim/vector.py": ("vector",),
    "repro/campaign/distributed/protocol.py": ("protocol",),
}

#: Functions pinned in protocol.py: the wire-format constructors and
#: parsers (helpers like fsync plumbing are not wire format).
_PROTOCOL_FUNCTIONS: Tuple[str, ...] = (
    "task_payload",
    "parse_task",
    "task_timeout",
    "chunk_payload",
    "stamp_lease",
    "lease_stamp",
    "result_payload",
    "error_payload",
    "parse_outcome",
    "outcome_worker",
    "send_msg",
    "recv_msg",
)


@dataclass(frozen=True)
class CheckConfig:
    """Everything rule behaviour depends on, as one immutable value."""

    rng_allowlist: Tuple[AllowedRng, ...] = _RNG_ALLOWLIST
    wallclock_modules: Tuple[str, ...] = _WALLCLOCK_MODULES
    deterministic_prefixes: Tuple[str, ...] = _DETERMINISTIC_PREFIXES
    bit_identity_prefixes: Tuple[str, ...] = _BIT_IDENTITY_PREFIXES
    versioned_modules: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(_VERSIONED_MODULES)
    )
    protocol_functions: Tuple[str, ...] = _PROTOCOL_FUNCTIONS
    #: Module holding KERNEL_VERSIONS (parsed statically, never
    #: imported) and the one holding PROTOCOL_VERSION.
    kernel_versions_module: str = "repro/battery/kernels.py"
    protocol_version_module: str = (
        "repro/campaign/distributed/protocol.py"
    )
    #: HASH001 targets.
    spec_module: str = "repro/campaign/spec.py"
    spec_registry_name: str = "_SPEC_TYPES"
    spec_hash_function: str = "content_hash"
    #: VER001 manifest (checked in next to the analyzer).
    manifest_path: Optional[Path] = None
    #: Baseline file ("known findings" for staged adoption).
    baseline_path: Optional[Path] = None

    def is_deterministic(self, key: str) -> bool:
        if key in self.wallclock_modules:
            return False
        return any(
            key.startswith(p) for p in self.deterministic_prefixes
        )

    def is_bit_identity(self, key: str) -> bool:
        return any(
            key.startswith(p) for p in self.bit_identity_prefixes
        )

    def rng_allowed(self, key: str, name: str) -> Optional[AllowedRng]:
        for entry in self.rng_allowlist:
            if entry.module == key and entry.name == name:
                return entry
        return None


def default_manifest_path() -> Path:
    """The checked-in hot-path manifest shipped with the analyzer."""
    return Path(__file__).resolve().parent / "hot_paths.json"


def default_config() -> CheckConfig:
    """The configuration the CLI uses on this repository."""
    return CheckConfig(manifest_path=default_manifest_path())
