"""Compile-on-first-use loader for the C delivery loop of ``arraystate``.

``_arrayloop.c`` is shipped as source and built lazily with the platform C
compiler into a content-hash-keyed cache (``~/.cache/repro-arrayloop``), so
the repo needs no build step, no setuptools machinery, and no wheel: the
first eligible run pays ~1s of ``cc -O2`` once per source revision and
every later process dlopens the cached object.  Anything going wrong --
no compiler, sandboxed filesystem, constant drift between the C file and
the Python modules it mirrors -- degrades to ``None`` and the pure-Python
loop in :meth:`ArrayCore.run_loop` keeps running, bit-identically.

Set ``REPRO_PURE_PYTHON=1`` to force the fallback (the differential suite
uses it to pin C-vs-Python equivalence).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from typing import Optional

from collections import deque

from repro.core.messages import (
    MSG_TYPES,
    T_CONQUER,
    T_INFO,
    T_MERGE_ACCEPT,
    T_MERGE_FAIL,
    T_MORE_DONE,
    T_PROBE,
    T_PROBE_REPLY,
    T_QUERY,
    T_QUERY_REPLY,
    T_RELEASE,
    T_SEARCH,
    WIRE_MERGE_ACCEPT,
    WIRE_MERGE_FAIL,
    WIRE_MORE_DONE_FALSE,
    WIRE_MORE_DONE_TRUE,
)
from repro.core.node import STATUS_CODES, VARIANTS
from repro.sim.network import SimulationError

__all__ = ["load"]

_SOURCE = Path(__file__).with_name("_arrayloop.c")

#: sentinel distinguishing "never tried" from "tried and unavailable"
_UNSET = object()
_module = _UNSET


def _constants_match() -> bool:
    """The C file hardcodes the wire/status/variant encodings; refuse to
    load it if the Python side ever drifts (fallback stays correct)."""
    tags = (
        (T_QUERY, 0),
        (T_QUERY_REPLY, 1),
        (T_SEARCH, 2),
        (T_RELEASE, 3),
        (T_MERGE_ACCEPT, 4),
        (T_MERGE_FAIL, 5),
        (T_INFO, 6),
        (T_CONQUER, 7),
        (T_MORE_DONE, 8),
        (T_PROBE, 9),
        (T_PROBE_REPLY, 10),
    )
    if any(py != c for py, c in tags) or len(MSG_TYPES) != 11:
        return False
    statuses = (
        ("asleep", 0),
        ("explore", 1),
        ("wait", 2),
        ("conquered", 3),
        ("conqueror", 4),
        ("passive", 5),
        ("inactive", 6),
        ("terminated", 7),
    )
    if any(STATUS_CODES.get(name) != code for name, code in statuses):
        return False
    return tuple(VARIANTS) == ("generic", "bounded", "adhoc")


def _so_path() -> Path:
    """The cached build of the current ``_arrayloop.c`` for this
    interpreter: ``_arrayloop_<sha16>_cp<XY>.so`` in the cache directory.

    The sanitizer CI lane compiles its instrumented build to this exact
    path so that :func:`load` picks it up instead of compiling.
    """
    tag = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    cache = Path(
        os.environ.get("REPRO_ARRAYLOOP_CACHE")
        or Path.home() / ".cache" / "repro-arrayloop"
    )
    return cache / f"_arrayloop_{tag}_cp{sys.version_info[0]}{sys.version_info[1]}.so"


def _build() -> Optional[Path]:
    """Compile ``_arrayloop.c`` into the cache; return the .so path."""
    try:
        so_path = _so_path()
    except OSError:
        return None
    if so_path.exists():
        return so_path
    cache = so_path.parent
    name = so_path.stem
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        cc = "cc"
        if shutil.which(cc) is None:
            return None
    include = sysconfig.get_paths().get("include")
    if not include:
        return None
    tmp = so_path.with_name(f"{name}.{os.getpid()}.tmp.so")
    try:
        cache.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-I" + include,
             str(_SOURCE), "-o", str(tmp)],
            capture_output=True,
            timeout=300,
        )
        if proc.returncode != 0:
            return None
        os.replace(tmp, so_path)  # atomic: concurrent builders converge
        return so_path
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        try:
            if tmp.exists():
                tmp.unlink()
        except OSError:
            pass


def load():
    """Return the configured ``_arrayloop`` module, or ``None``.

    Idempotent and memoized (including the ``None`` outcome); safe to call
    per ``run_loop`` entry.
    """
    global _module
    if _module is not _UNSET:
        return _module
    _module = None  # any failure below stays a cheap memoized miss
    if os.environ.get("REPRO_PURE_PYTHON"):
        return None
    if not _constants_match():
        return None
    so_path = _build()
    if so_path is None:
        return None
    try:
        spec = importlib.util.spec_from_file_location(
            "repro.core._arrayloop", so_path
        )
        if spec is None or spec.loader is None:
            return None
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        mod.configure(
            {
                "deque": deque,
                "simulation_error": SimulationError,
                "msg_types": MSG_TYPES,
                "wire_merge_accept": WIRE_MERGE_ACCEPT,
                "wire_merge_fail": WIRE_MERGE_FAIL,
                "wire_md_true": WIRE_MORE_DONE_TRUE,
                "wire_md_false": WIRE_MORE_DONE_FALSE,
                "greedy_k": 1 << 62,
            }
        )
    except Exception:
        return None
    _module = mod
    return mod
