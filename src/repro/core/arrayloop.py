"""Compile-on-first-use loader for the C delivery loop of ``arraystate``.

``_arrayloop.c`` is shipped as source and built lazily with the platform C
compiler into a content-hash-keyed cache (``~/.cache/repro-arrayloop``), so
the repo needs no build step, no setuptools machinery, and no wheel: the
first eligible run pays ~1s of ``cc -O2`` once per source revision and
every later process dlopens the cached object.  Anything going wrong --
no compiler, sandboxed filesystem, constant drift between the C file and
the Python modules it mirrors -- degrades to ``None``, and
:func:`unavailable_reason` says why.  Without the module, simulator runs
take the fastcore object loop (bit-identical) and
:func:`repro.core.arraystate.run_graph` builds node objects, warning once
per call with that reason.

Set ``REPRO_PURE_PYTHON=1`` to simulate a platform without a compiler.
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
    ABORT,
    MERGE,
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
from repro.core.node import LEADER_STATES, STATUS_CODES, VARIANTS, ProtocolError
from repro.sim.network import SimulationError

__all__ = ["load", "unavailable_reason"]

_SOURCE = Path(__file__).with_name("_arrayloop.c")

#: sentinel distinguishing "never tried" from "tried and unavailable"
_UNSET = object()
_module = _UNSET
#: why the last :func:`load` returned ``None`` (``None`` otherwise)
_reason: Optional[str] = None

#: how much of the compiler's stderr a failed build reports
_STDERR_TAIL = 400


class _Unavailable(Exception):
    """Internal: the C loop cannot be built or loaded; ``str`` says why."""


def _constants_match() -> bool:
    """The C file hardcodes the wire/status/variant encodings, the leader
    states and the release answers its error texts name; refuse to load
    it if the Python side ever drifts (the object loop stays correct)."""
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
    if LEADER_STATES != {"explore", "wait", "conqueror", "terminated"}:
        return False
    if (MERGE, ABORT) != ("merge", "abort"):
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


def _build() -> Path:
    """Compile ``_arrayloop.c`` into the cache; return the .so path.

    Raises :class:`_Unavailable` naming what went wrong.
    """
    try:
        so_path = _so_path()
    except OSError as exc:
        raise _Unavailable(f"cannot locate the build cache: {exc}")
    if so_path.exists():
        return so_path
    cache = so_path.parent
    name = so_path.stem
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        cc = "cc"
        if shutil.which(cc) is None:
            raise _Unavailable("no C compiler on PATH")
    include = sysconfig.get_paths().get("include")
    if not include:
        raise _Unavailable("no Python include directory")
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
            tail = proc.stderr.decode(errors="replace").strip()[-_STDERR_TAIL:]
            raise _Unavailable(f"{cc} exited {proc.returncode}: {tail}")
        os.replace(tmp, so_path)  # atomic: concurrent builders converge
        return so_path
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable(f"build failed: {exc}")
    finally:
        try:
            if tmp.exists():
                tmp.unlink()
        except OSError:
            pass


def load():
    """Return the configured ``_arrayloop`` module, or ``None``.

    Idempotent and memoized (including the ``None`` outcome and its
    reason); safe to call per run.
    """
    global _module, _reason
    if _module is not _UNSET:
        return _module
    _module = None  # any failure below stays a cheap memoized miss
    try:
        _module = _load()
    except _Unavailable as exc:
        _reason = str(exc)
    return _module


def unavailable_reason() -> Optional[str]:
    """Why :func:`load` returned ``None``; ``None`` when it has not, or
    when the module was disabled without one."""
    return _reason if _module is None else None


def _load():
    if os.environ.get("REPRO_PURE_PYTHON"):
        raise _Unavailable("REPRO_PURE_PYTHON is set")
    if not _constants_match():
        raise _Unavailable("constants drifted from _arrayloop.c")
    so_path = _build()
    spec = importlib.util.spec_from_file_location("repro.core._arrayloop", so_path)
    if spec is None or spec.loader is None:
        raise _Unavailable(f"cannot import {so_path.name}")
    try:
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        mod.configure(
            {
                "deque": deque,
                "simulation_error": SimulationError,
                "protocol_error": ProtocolError,
                "msg_types": MSG_TYPES,
                "wire_merge_accept": WIRE_MERGE_ACCEPT,
                "wire_merge_fail": WIRE_MERGE_FAIL,
                "wire_md_true": WIRE_MORE_DONE_TRUE,
                "wire_md_false": WIRE_MORE_DONE_FALSE,
                "greedy_k": 1 << 62,
            }
        )
    except Exception as exc:
        raise _Unavailable(f"loading {so_path.name} failed: {exc!r}")
    return mod
