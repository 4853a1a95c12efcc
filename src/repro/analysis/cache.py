"""Incremental per-file analysis cache, keyed on content hashes.

Whole-tree lint runs spend their time parsing and running the rules,
and every rule decides one file at a time. The cache therefore stores,
per file, its result -- the violations that survived pragma
suppression (unused-pragma RPR900 findings included) or its parse
error -- and a warm run re-parses only files whose SHA-256 changed.
The whole cache is invalidated when the *rule-set signature* (engine
version + active rule ids) changes -- a new rule must see every file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__all__ = ["AnalysisCache", "CACHE_FORMAT_VERSION", "content_hash"]

CACHE_FORMAT_VERSION = 1


def content_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class AnalysisCache:
    """Load/store per-file lint facts under one JSON document."""

    def __init__(self, path: str | Path, signature: str):
        self.path = Path(path)
        self.signature = signature
        self.files: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self._dirty = False

    @classmethod
    def load(cls, path: str | Path, signature: str) -> "AnalysisCache":
        cache = cls(path, signature)
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return cache
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_FORMAT_VERSION
            or payload.get("signature") != signature
        ):
            # A stale or foreign cache is simply empty: correctness never
            # depends on the cache, only warm-run speed does.
            return cache
        files = payload.get("files")
        if isinstance(files, dict):
            cache.files = files
        return cache

    def lookup(self, path: str | Path, digest: str) -> dict | None:
        """The cached entry for ``path`` iff its content still matches."""
        entry = self.files.get(str(path))
        if entry is not None and entry.get("hash") == digest:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(self, path: str | Path, digest: str, entry: dict) -> None:
        entry = dict(entry)
        entry["hash"] = digest
        self.files[str(path)] = entry
        self._dirty = True

    def save(self) -> None:
        document = {
            "version": CACHE_FORMAT_VERSION,
            "signature": self.signature,
            "files": self.files,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(
            json.dumps(document, sort_keys=True), encoding="utf-8"
        )
        self._dirty = False
