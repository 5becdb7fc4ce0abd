"""Checkpoint / restore for the fleet engine.

A long-running release service must be able to restart without losing the
leakage it has already accrued -- the TPL recursions are stateful, and
"forgetting" past releases would silently under-count privacy loss.  A
checkpoint is a directory holding:

* ``arrays.npz`` -- every numeric series (budget vectors, BPL series,
  correlation matrices) as exact float64 arrays;
* ``manifest.json`` -- the structure: cohorts, groups, override members,
  join times, the alpha bound and a format version.

Restoring rebuilds a :class:`~repro.fleet.engine.FleetAccountant` whose
leakage profiles are *bit-identical* to the live engine's (BPL series are
restored verbatim; FPL is recomputed lazily from the same floats).

User identifiers must be JSON-scalar (``str`` / ``int``) or tuples
thereof; tuples round-trip like the state labels in :mod:`repro.io`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..markov.matrix import TransitionMatrix
from .engine import FleetAccountant
from .solution_cache import SolutionCache

__all__ = ["save_checkpoint", "load_checkpoint"]

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

PathLike = Union[str, Path]


def _encode_user(user):
    if isinstance(user, tuple):
        return {"__tuple__": list(user)}
    return user


def _decode_user(payload):
    if isinstance(payload, dict) and "__tuple__" in payload:
        return tuple(payload["__tuple__"])
    return payload


# Public aliases: the service layer's scalar-backend checkpoint shares the
# same JSON user-id encoding, so both checkpoint kinds round-trip the same
# identifier types.
encode_user_id = _encode_user
decode_user_id = _decode_user


def save_checkpoint(engine: FleetAccountant, path: PathLike) -> Path:
    """Persist the full engine state under directory ``path`` (created if
    missing).  Returns the directory path."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)

    arrays = {"epsilons": engine.epsilons}
    cohorts = []
    for i, (key, pair, groups, overrides) in enumerate(engine._cohort_rows()):
        payload = {"key": key, "backward": None, "forward": None}
        for side, matrix in zip(("backward", "forward"), pair):
            if matrix is not None:
                array_key = f"c{i}_{side}"
                arrays[array_key] = np.asarray(matrix.array)
                payload[side] = {
                    "array": array_key,
                    "states": [_encode_user(s) for s in matrix.states],
                }
        payload["groups"] = []
        for j, (start, members, bpl) in enumerate(groups):
            arrays[f"c{i}_g{j}_bpl"] = bpl
            payload["groups"].append(
                {
                    "start": start,
                    "members": [_encode_user(u) for u in members],
                    "bpl": f"c{i}_g{j}_bpl",
                }
            )
        payload["overrides"] = []
        for k, (user, start, eps, bpl) in enumerate(overrides):
            arrays[f"c{i}_o{k}_eps"] = eps
            arrays[f"c{i}_o{k}_bpl"] = bpl
            payload["overrides"].append(
                {
                    "user": _encode_user(user),
                    "start": start,
                    "eps": f"c{i}_o{k}_eps",
                    "bpl": f"c{i}_o{k}_bpl",
                }
            )
        cohorts.append(payload)

    manifest = {
        "format": FORMAT_VERSION,
        "kind": "fleet_checkpoint",
        "alpha": engine.alpha,
        "horizon": engine.horizon,
        "n_users": engine.n_users,
        "cohorts": cohorts,
    }
    np.savez(directory / ARRAYS_NAME, **arrays)
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return directory


def load_checkpoint(
    path: PathLike, cache: Optional[SolutionCache] = None
) -> FleetAccountant:
    """Rebuild a :class:`FleetAccountant` from :func:`save_checkpoint`
    output.  A fresh :class:`SolutionCache` is attached unless one is
    supplied (caches are transparent state and are not checkpointed)."""
    directory = Path(path)
    manifest = json.loads(
        (directory / MANIFEST_NAME).read_text(encoding="utf-8")
    )
    if manifest.get("kind") != "fleet_checkpoint":
        raise ValueError(f"{directory} is not a fleet checkpoint")
    if manifest.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format {manifest.get('format')!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    with np.load(directory / ARRAYS_NAME) as arrays:
        cohorts = []
        for payload in manifest["cohorts"]:
            pair = []
            for side in ("backward", "forward"):
                entry = payload[side]
                if entry is None:
                    pair.append(None)
                else:
                    states = [_decode_user(s) for s in entry["states"]]
                    pair.append(
                        TransitionMatrix(arrays[entry["array"]], states=states)
                    )
            groups = [
                (
                    int(group["start"]),
                    [_decode_user(u) for u in group["members"]],
                    arrays[group["bpl"]],
                )
                for group in payload["groups"]
            ]
            overrides = [
                (
                    _decode_user(override["user"]),
                    int(override["start"]),
                    arrays[override["eps"]],
                    arrays[override["bpl"]],
                )
                for override in payload["overrides"]
            ]
            cohorts.append((tuple(pair), groups, overrides))
        engine = FleetAccountant(alpha=manifest["alpha"], cache=cache)
        engine._restore(arrays["epsilons"], cohorts)
    return engine
