"""Model registry: persist and reload checkpoints with integrity checking.

Each named model is a pair of files — ``<root>/<key>.npz`` (weights) and
``<root>/<key>.json`` (the :class:`~repro.nn.ViTConfig` needed to rebuild
the module, plus an ``integrity`` block recording the weights file's
SHA-256 digest, byte size, and state-dict key set).  The registry treats
that pair as one transactional unit:

* **Atomic publication** — weights are written first (temp file +
  ``os.replace``), the meta last, so a crash can never publish a meta
  without its weights; readers either see the old checkpoint or the new
  one, never a torn write.
* **Verification on read** — :meth:`validate` (and therefore
  :meth:`exists` and :meth:`load`) checks both files exist, the meta
  parses, the digest/size/key set match, and the archive actually
  decompresses, before any weights reach a model.
* **Quarantine, not deletion** — :meth:`quarantine` moves a damaged pair
  into ``<root>/quarantine/`` so the bytes survive for post-mortem while
  the cache heals itself by retraining.

Registry names are percent-encoded into filenames (RFC 3986 unreserved
characters pass through), so distinct names like ``"a/b"`` and ``"a_b"``
can never collide on disk and :meth:`names` round-trips exactly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import urllib.parse
from typing import Dict, List, Optional

import numpy as np

from repro.nn import (
    VisionTransformer,
    ViTConfig,
    load_state_dict,
    save_state_dict,
)
from repro.nn.serialization import atomic_write_bytes, file_sha256, state_dict_keys

META_FORMAT_VERSION = 2

_CONFIG_FIELDS = (
    "image_size", "patch_size", "in_channels", "dim", "depth",
    "num_heads", "mlp_ratio", "num_classes", "attribute_heads",
)


class CorruptArtifactError(RuntimeError):
    """A registered checkpoint exists on disk but failed integrity checks.

    ``problems`` lists every failed check; ``paths`` names the offending
    files so strict-mode callers (CI) can report exactly what is damaged.
    """

    def __init__(self, name: str, problems: List[str],
                 paths: Optional[List[str]] = None) -> None:
        self.name = name
        self.problems = list(problems)
        self.paths = list(paths or [])
        detail = "; ".join(self.problems) or "unknown corruption"
        where = f" [{', '.join(self.paths)}]" if self.paths else ""
        super().__init__(f"corrupt artifact {name!r}: {detail}{where}")


@dataclasses.dataclass
class ArtifactStatus:
    """Outcome of validating one registry entry."""

    name: str
    ok: bool
    missing: bool          # neither file present (a clean cache miss)
    problems: List[str]
    weights_path: str
    meta_path: str

    @property
    def corrupt(self) -> bool:
        return not self.ok and not self.missing


def _lock_is_held(path: str) -> bool:
    """Best-effort probe: is some process currently flock-holding ``path``?

    Without ``fcntl`` (or on flock failure for other reasons) falls back
    to treating young lock files (< 1 h) as live.
    """
    try:
        import fcntl
    except ImportError:
        fcntl = None
    if fcntl is not None:
        try:
            fd = os.open(path, os.O_RDWR)
        except OSError:
            return False  # vanished — nothing to hold
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            return True
        else:
            fcntl.flock(fd, fcntl.LOCK_UN)
            return False
        finally:
            os.close(fd)
    try:
        import time
        return (time.time() - os.stat(path).st_mtime) < 3600.0
    except OSError:
        return False


def _sanitize(name: str) -> str:
    """Injective name -> filename-stem mapping (percent-encoding).

    Unreserved characters (letters, digits, ``-._~``) map to themselves,
    so every key the builder has historically generated keeps its
    filename; anything else — ``/``, spaces, ``%`` itself — is escaped,
    so distinct names can never share files.
    """
    return urllib.parse.quote(name, safe="")


def _unsanitize(stem: str) -> str:
    return urllib.parse.unquote(stem)


class ModelRegistry:
    """Directory-backed store of named ViT checkpoints (see module docs)."""

    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _paths(self, name: str) -> Dict[str, str]:
        safe = _sanitize(name)
        return {
            "weights": os.path.join(self.root, f"{safe}.npz"),
            "meta": os.path.join(self.root, f"{safe}.json"),
        }

    def lock_path(self, name: str) -> str:
        return os.path.join(self.root, f"{_sanitize(name)}.lock")

    @property
    def quarantine_root(self) -> str:
        return os.path.join(self.root, self.QUARANTINE_DIR)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def save(self, name: str, model: VisionTransformer,
             extra: Optional[Dict] = None) -> None:
        """Atomically persist ``model`` under ``name`` (weights before meta)."""
        paths = self._paths(name)
        info = save_state_dict(model.state_dict(), paths["weights"])
        cfg = model.config
        meta = {
            "image_size": cfg.image_size,
            "patch_size": cfg.patch_size,
            "in_channels": cfg.in_channels,
            "dim": cfg.dim,
            "depth": cfg.depth,
            "num_heads": cfg.num_heads,
            "mlp_ratio": cfg.mlp_ratio,
            "num_classes": cfg.num_classes,
            "attribute_heads": list(map(list, cfg.attribute_heads)),
            "with_task_head": cfg.with_task_head,
            "extra": extra or {},
            "integrity": {
                "format": META_FORMAT_VERSION,
                "algorithm": "sha256",
                "weights_sha256": info["sha256"],
                "weights_bytes": info["bytes"],
                "state_keys": info["keys"],
            },
        }
        payload = json.dumps(meta, indent=2).encode()
        atomic_write_bytes(payload, paths["meta"])

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, name: str) -> ArtifactStatus:
        """Full integrity check of one entry without instantiating a model."""
        paths = self._paths(name)
        has_meta = os.path.exists(paths["meta"])
        has_weights = os.path.exists(paths["weights"])
        problems: List[str] = []
        if not has_meta and not has_weights:
            return ArtifactStatus(name=name, ok=False, missing=True,
                                  problems=["not registered"],
                                  weights_path=paths["weights"],
                                  meta_path=paths["meta"])
        if not has_meta:
            problems.append(f"weights without meta (orphan {paths['weights']})")
        if not has_weights:
            problems.append(f"meta without weights (missing {paths['weights']})")

        meta: Optional[Dict] = None
        if has_meta:
            try:
                with open(paths["meta"]) as handle:
                    meta = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
                problems.append(f"unreadable meta JSON ({exc})")
            else:
                absent = [f for f in _CONFIG_FIELDS if f not in meta]
                if absent:
                    problems.append(f"meta missing config fields {absent}")

        integrity = (meta or {}).get("integrity") or {}
        if has_weights:
            if integrity:
                expected_bytes = integrity.get("weights_bytes")
                actual_bytes = os.path.getsize(paths["weights"])
                if expected_bytes is not None and actual_bytes != expected_bytes:
                    problems.append(
                        f"weights size mismatch (expected {expected_bytes} B, "
                        f"found {actual_bytes} B)")
                expected_sha = integrity.get("weights_sha256")
                if expected_sha is not None and not problems:
                    actual_sha = file_sha256(paths["weights"])
                    if actual_sha != expected_sha:
                        problems.append(
                            f"weights checksum mismatch (expected "
                            f"{expected_sha[:12]}..., found {actual_sha[:12]}...)")
            try:
                keys = state_dict_keys(paths["weights"])
            except Exception as exc:
                problems.append(f"unreadable weights archive ({exc})")
            else:
                expected_keys = integrity.get("state_keys")
                if expected_keys is not None and keys != sorted(expected_keys):
                    problems.append(
                        f"state-dict key set mismatch (expected "
                        f"{len(expected_keys)} keys, found {len(keys)})")
        return ArtifactStatus(name=name, ok=not problems, missing=False,
                              problems=problems,
                              weights_path=paths["weights"],
                              meta_path=paths["meta"])

    def exists(self, name: str) -> bool:
        """True only for a *complete and valid* entry (both files, checks pass)."""
        return self.validate(name).ok

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def load(self, name: str) -> VisionTransformer:
        status = self.validate(name)
        if status.missing:
            raise FileNotFoundError(f"no registered model named {name!r}")
        if not status.ok:
            raise CorruptArtifactError(name, status.problems,
                                       [status.meta_path, status.weights_path])
        paths = self._paths(name)
        with open(paths["meta"]) as handle:
            meta = json.load(handle)
        config = ViTConfig(
            image_size=meta["image_size"],
            patch_size=meta["patch_size"],
            in_channels=meta["in_channels"],
            dim=meta["dim"],
            depth=meta["depth"],
            num_heads=meta["num_heads"],
            mlp_ratio=meta["mlp_ratio"],
            num_classes=meta["num_classes"],
            attribute_heads=tuple(
                (name_, card) for name_, card in meta["attribute_heads"]
            ),
            with_task_head=meta.get("with_task_head", False),
        )
        model = VisionTransformer(config, rng=np.random.default_rng(0))
        state = load_state_dict(paths["weights"])
        expected = sorted(model.state_dict())
        if sorted(state) != expected:
            raise CorruptArtifactError(
                name,
                [f"checkpoint keys do not match the rebuilt ViTConfig "
                 f"({len(state)} keys vs {len(expected)} expected)"],
                [paths["weights"]])
        try:
            model.load_state_dict(state)
        except (KeyError, ValueError) as exc:
            raise CorruptArtifactError(
                name, [f"state dict rejected by model ({exc})"],
                [paths["weights"]]) from exc
        model.eval()
        return model

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(
            _unsanitize(fname[:-5])
            for fname in os.listdir(self.root) if fname.endswith(".json")
        )

    def statuses(self) -> List[ArtifactStatus]:
        """Validate every registered entry (union of meta and weight stems)."""
        stems = set()
        for fname in os.listdir(self.root):
            if fname.endswith(".json"):
                stems.add(fname[:-5])
            elif fname.endswith(".npz"):
                stems.add(fname[:-4])
        return [self.validate(_unsanitize(stem)) for stem in sorted(stems)]

    def metadata(self, name: str) -> Dict:
        paths = self._paths(name)
        if not os.path.exists(paths["meta"]):
            raise FileNotFoundError(f"no registered model named {name!r}")
        with open(paths["meta"]) as handle:
            return json.load(handle)

    def quarantine(self, name: str) -> List[str]:
        """Move whatever files exist for ``name`` into the quarantine dir.

        Returns the destination paths.  Filenames get a numeric suffix if a
        previous quarantine of the same key is already there.
        """
        os.makedirs(self.quarantine_root, exist_ok=True)
        moved: List[str] = []
        for path in self._paths(name).values():
            if not os.path.exists(path):
                continue
            base = os.path.basename(path)
            dest = os.path.join(self.quarantine_root, base)
            attempt = 0
            while os.path.exists(dest):
                attempt += 1
                dest = os.path.join(self.quarantine_root, f"{base}.{attempt}")
            os.replace(path, dest)
            moved.append(dest)
        return moved

    def gc(self, remove_quarantine: bool = True) -> List[str]:
        """Delete leftover temp files, stale lock files, and (optionally)
        quarantined checkpoints.  Returns the paths removed.

        Lock files whose flock is currently held (a live trainer) are left
        alone — unlinking them would let a second process believe the key
        is free and double-train.
        """
        removed: List[str] = []
        for fname in os.listdir(self.root):
            if fname.endswith(".tmp") or fname.endswith(".lock"):
                path = os.path.join(self.root, fname)
                if fname.endswith(".lock") and _lock_is_held(path):
                    continue
                try:
                    os.unlink(path)
                except OSError:
                    continue
                removed.append(path)
        if remove_quarantine and os.path.isdir(self.quarantine_root):
            for fname in sorted(os.listdir(self.quarantine_root)):
                path = os.path.join(self.quarantine_root, fname)
                try:
                    os.unlink(path)
                except OSError:
                    continue
                removed.append(path)
            try:
                os.rmdir(self.quarantine_root)
            except OSError:
                pass
        return removed
