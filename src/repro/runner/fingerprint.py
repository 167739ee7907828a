"""Stable content fingerprints for run and fleet specifications.

The result cache is keyed by a SHA-256 over a *canonical* JSON encoding
of the spec — for a :class:`~repro.runner.spec.RunSpec` every field of
its :class:`~repro.config.TrainingConfig` (recursively, including the
fault plan, device, TCP path, bandwidth schedules, and aggregation
policy), the strategy name and its builder kwargs, and the warmup
``skip``; for a :class:`~repro.fleet.spec.FleetSpec` every field of the
fleet — plus the package version and a digest of the package source
(:func:`source_digest`).  The spec's ``__type__`` tag keeps run and
fleet keys apart.  Two specs collide iff they describe the same
simulation under the same code — the simulator is seed-deterministic, so
equal fingerprints imply equal results, and an edited source tree never
reads entries written by older code.

Canonicalization rules:

* dataclasses encode as ``{"__type__": qualified name, fields...}`` —
  the type tag keeps e.g. an empty ``FaultPlan`` distinct from ``None``;
* mappings encode as sorted key/value pair lists (keys may be ints);
* numpy scalars/arrays decay to Python numbers/lists;
* :class:`~repro.net.link.BandwidthSchedule` encodes as its breakpoints;
* other objects (aggregation policies) encode as class name + ``vars()``;
* callables are rejected with :class:`~repro.errors.ConfigurationError` —
  a closure has no stable content identity, which is exactly why specs
  carry strategy *names*.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

import repro
from repro.errors import ConfigurationError
from repro.net.link import BandwidthSchedule

__all__ = ["canonical", "fingerprint", "key_payload", "source_digest"]

@functools.cache
def source_digest() -> str:
    """Hex SHA-256 over every ``.py`` file of the installed package.

    Each file contributes its package-relative path and its bytes, in
    sorted path order.  Computed on the first cache key a process builds
    and reused after that, so uncached runs never read the tree.
    """
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _type_tag(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-able structure."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # json round-trips floats via repr (shortest exact form).
        return obj
    if isinstance(obj, np.generic):
        return canonical(obj.item())
    if isinstance(obj, np.ndarray):
        return {"__type__": "ndarray", "data": obj.tolist()}
    if isinstance(obj, BandwidthSchedule):
        return {
            "__type__": "BandwidthSchedule",
            "points": [[float(t), float(v)] for t, v in obj.points],
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {"__type__": _type_tag(obj)}
        for f in dataclasses.fields(obj):
            out[f.name] = canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, Mapping):
        items = [[canonical(k), canonical(v)] for k, v in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__type__": "mapping", "items": items}
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if callable(obj):
        raise ConfigurationError(
            f"cannot fingerprint callable {obj!r}; reference strategies and "
            "policies by registry name / plain-data parameters instead"
        )
    # Generic objects (aggregation policies and the like): class identity
    # plus instance state.  Objects whose state is itself unfingerprintable
    # fail recursively with the callable error above.
    state = getattr(obj, "__dict__", None)
    if state is None and hasattr(type(obj), "__slots__"):
        state = {
            name: getattr(obj, name)
            for name in type(obj).__slots__
            if hasattr(obj, name)
        }
    if state is not None:
        return {
            "__type__": _type_tag(obj),
            "state": {k: canonical(v) for k, v in sorted(state.items())},
        }
    raise ConfigurationError(
        f"cannot fingerprint object of type {_type_tag(obj)}: no stable "
        "content representation"
    )


def key_payload(spec: Any) -> dict[str, Any]:
    """The full canonical identity of ``spec`` (pre-hash, for debugging)."""
    return {
        "version": repro.__version__,
        "source": source_digest(),
        "spec": canonical(spec),
    }


def fingerprint(spec: Any) -> str:
    """Hex SHA-256 identifying ``spec``'s simulation under this version."""
    encoded = json.dumps(key_payload(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
