"""Checkpoint-level re-sharding: redistribute persisted cohort state.

:meth:`~repro.service.sharding.ShardedFleetBackend.restore` deliberately
refuses a conflicting shard count -- the cohort -> shard assignment is
part of the persisted state and a coordinator must not guess.  This
module closes the gap one layer up: cohorts are mutually independent, so
a fleet (or sharded-fleet) checkpoint can be *rewritten* for any shard
count by placing every cohort with the same content-hash rule the live
coordinator uses (:func:`~repro.service.sharding.shard_of_digest`) and
transplanting its state verbatim.  Budgets, BPL series and join times
move untouched, so the resharded checkpoint restores bit-identical
leakage numbers -- the re-sharding parity suite pins this against an
uninterrupted run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from ..fleet.checkpoint import (
    MANIFEST_NAME as FLEET_MANIFEST_NAME,
    load_checkpoint,
    save_checkpoint,
)
from ..fleet.engine import FleetAccountant
from ..service.backends import SCALAR_MANIFEST_NAME
from ..service.sharding import (
    SHARD_CHECKPOINT_KIND,
    SHARD_MANIFEST_NAME,
    _SHARD_FORMAT_VERSION,
    shard_of_digest,
)

__all__ = ["reshard_checkpoint"]


def _load_source_engines(source: Path) -> List[FleetAccountant]:
    """Load every fleet engine a checkpoint holds (one for a plain fleet
    checkpoint, one per shard for a sharded one)."""
    if (source / SCALAR_MANIFEST_NAME).exists():
        raise ValueError(
            f"checkpoint in {source} was written by the scalar backend; "
            "scalar checkpoints replay from their manifest and cannot be "
            "resharded -- restore through the fleet backend instead"
        )
    if (source / SHARD_MANIFEST_NAME).exists():
        try:
            manifest = json.loads(
                (source / SHARD_MANIFEST_NAME).read_text(encoding="utf-8")
            )
        except ValueError as error:
            raise ValueError(
                f"torn or corrupt shard manifest in {source}; refusing to "
                "reshard"
            ) from error
        if manifest.get("kind") != SHARD_CHECKPOINT_KIND:
            raise ValueError(f"{source} is not a sharded fleet checkpoint")
        return [
            load_checkpoint(source / f"shard_{i}")
            for i in range(int(manifest["shards"]))
        ]
    if (source / FLEET_MANIFEST_NAME).exists():
        return [load_checkpoint(source)]
    raise ValueError(f"{source} is not a fleet or sharded-fleet checkpoint")


def reshard_checkpoint(source, destination, shards: int) -> Path:
    """Rewrite the checkpoint at ``source`` for ``shards`` partitions.

    ``shards >= 2`` writes a sharded-fleet checkpoint (``shard_<i>/``
    sub-checkpoints plus ``shard_manifest.json``); ``shards == 1`` folds
    everything into a plain fleet checkpoint.  Cohorts land on
    ``shard_of_digest(cohort_key, shards)`` -- the placement a live
    coordinator with that shard count would have used -- so the output
    restores through the ordinary paths.  Shards left without cohorts
    are legal (the coordinator already tolerates empty workers).

    The source may itself be sharded; its shards must agree on the
    budget series and alpha (a torn parallel save refuses, exactly like
    ``ShardedFleetBackend.restore``).
    """
    source = Path(source)
    destination = Path(destination)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    engines = _load_source_engines(source)

    epsilons = [float(e) for e in engines[0].epsilons]
    alpha = engines[0].alpha
    for index, engine in enumerate(engines[1:], start=1):
        if [float(e) for e in engine.epsilons] != epsilons:
            raise ValueError(
                f"corrupt sharded checkpoint: shard {index}'s budget "
                "series disagrees with shard 0's; the shards were not "
                "saved from the same state"
            )
        if engine.alpha != alpha:
            raise ValueError(
                f"corrupt sharded checkpoint: shard {index}'s alpha "
                f"({engine.alpha}) disagrees with shard 0's ({alpha})"
            )

    placed: List[list] = [[] for _ in range(shards)]
    for engine in engines:
        for key, *cohort in engine._cohort_rows():
            placed[shard_of_digest(key, shards)].append(cohort)
    targets = [FleetAccountant(alpha=alpha) for _ in range(shards)]
    for target, cohorts in zip(targets, placed):
        target._restore(epsilons, cohorts)

    destination.mkdir(parents=True, exist_ok=True)
    if shards == 1:
        save_checkpoint(targets[0], destination)
        return destination
    for index, target in enumerate(targets):
        save_checkpoint(target, destination / f"shard_{index}")
    manifest = {
        "format": _SHARD_FORMAT_VERSION,
        "kind": SHARD_CHECKPOINT_KIND,
        "shards": shards,
        "horizon": len(epsilons),
        "n_users": sum(target.n_users for target in targets),
    }
    (destination / SHARD_MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return destination
