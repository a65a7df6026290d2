"""The committed seed corpus and replayable case files.

A *case file* is the fuzzer's unit of exchange: a JSON document holding
a :class:`~repro.fuzz.scenario.ScenarioSpec` plus the divergences (if
any) observed when it was recorded.  The committed seed corpus under
``tests/fuzz_corpus/`` pins one scenario per historical bug — each one
reproduces its bug when the fix is reverted — plus broad-coverage
scenarios the CI smoke step replays on every PR.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.fuzz.scenario import CASE_SCHEMA, ScenarioSpec

PathLike = Union[str, os.PathLike]

#: Environment override for where campaigns drop divergence artifacts.
ARTIFACTS_ENV = "REPRO_FUZZ_DIR"


def default_corpus_dir() -> Path:
    """The committed seed corpus (repo checkout) or a cwd fallback."""
    repo_corpus = Path(__file__).resolve().parents[3] / "tests" / "fuzz_corpus"
    if repo_corpus.is_dir():
        return repo_corpus
    return Path.cwd() / "tests" / "fuzz_corpus"


def default_artifacts_dir() -> Path:
    return Path(os.environ.get(ARTIFACTS_ENV, ".fuzz_artifacts"))


# ----------------------------------------------------------------------
# case files
# ----------------------------------------------------------------------
def load_case(path: PathLike) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        case = json.load(handle)
    schema = case.get("schema")
    if schema != CASE_SCHEMA:
        raise ValueError(
            f"{path}: case schema {schema!r} != supported {CASE_SCHEMA}")
    if "spec" not in case:
        raise ValueError(f"{path}: case file has no 'spec'")
    return case


def spec_from_case(case: Dict[str, Any]) -> ScenarioSpec:
    return ScenarioSpec.from_json_dict(case["spec"])


def save_case(directory: PathLike, result, name: Optional[str] = None,
              note: Optional[str] = None) -> Path:
    """Write a :class:`~repro.fuzz.runner.CaseResult` as a case file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = _slug(name) if name else f"case_seed{result.spec.seed}"
    payload = result.as_dict()
    if note:
        payload["note"] = note
    path = directory / f"{stem}.json"
    counter = 1
    while path.exists():
        path = directory / f"{stem}_{counter}.json"
        counter += 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_") or "case"


# ----------------------------------------------------------------------
# corpus iteration
# ----------------------------------------------------------------------
def iter_corpus(
    directory: Optional[PathLike] = None,
) -> Iterator[Tuple[Path, ScenarioSpec]]:
    """Yield ``(path, spec)`` for every case file in the corpus, sorted."""
    directory = Path(directory) if directory is not None else default_corpus_dir()
    if not directory.is_dir():
        return
    for path in sorted(directory.glob("*.json")):
        yield path, spec_from_case(load_case(path))

