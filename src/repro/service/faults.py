"""Deterministic fault injection for shard workers.

A :class:`FaultPlan` arms a shard-worker process with failures that fire
on the *n*-th matching protocol call — the deterministic counterpart of
"the worker crashed in production at 3am".  Faults act at the
frame-handling layer of :class:`~repro.service.shard_worker.ShardWorkerServer`
(after the request frame is decoded, before it is dispatched), on the
worker's one event loop: a stalled call holds that loop as a slow mine
does, so every other call and the supervisor's liveness ping wait
behind it.

Spec grammar (``repro shard-worker --fault`` or ``REPRO_SHARD_FAULTS``)::

    SPEC    := FAULT ("," FAULT)*
    FAULT   := ACTION ["=" ARG] "@" NTH [":" CALL]
    ACTION  := "kill" | "stall" | "garbage" | "short"

* ``kill@2`` — ``os._exit`` while handling the 2nd call (a hard crash:
  no response frame, no cleanup — what a OOM-kill looks like);
* ``stall=1.5@1`` — hold the loop for 1.5 s before dispatching the 1st
  call (a slow mine; held past the supervisor's liveness bound, the
  worker is killed as wedged and restarted);
* ``garbage@1:expand_seeds`` — answer the 1st ``expand_seeds`` with a
  well-framed body that is not JSON, then drop the connection;
* ``short@1`` — write only half of the response frame, then drop the
  connection (a torn write / crashed-mid-send peer).

Only ``stall`` takes an argument, finite seconds > 0, and ``CALL`` must
name a protocol call: a spec that could never fire is refused.

Counters are per-fault and count only matching *protocol* calls
(``hello`` handshakes are exempt, so supervisor health pings never
consume a fault).  A restarted worker parses the spec afresh — its
counters start at zero — which is how ``kill@1`` plus a restart budget
of zero models a permanently dead shard.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

from repro.errors import ServiceError
from repro.service.wire import CALLS

__all__ = ["Fault", "FaultPlan", "FAULTS_ENV"]

FAULTS_ENV = "REPRO_SHARD_FAULTS"

_ACTIONS = ("kill", "stall", "garbage", "short")


@dataclass(slots=True)
class Fault:
    """One armed failure: fires on the ``nth`` call matching ``call``."""

    action: str
    nth: int
    arg: float = 0.0
    call: str | None = None
    _seen: int = field(default=0, repr=False)

    def matches(self, call: str) -> bool:
        return self.call is None or self.call == call

    def fire(self) -> bool:
        """Count one matching call; True when this is the armed one."""
        self._seen += 1
        return self._seen == self.nth


class FaultPlan:
    """A parsed fault spec; thread-safe, consulted once per call frame."""

    def __init__(self, faults: list[Fault]) -> None:
        self._faults = faults
        self._lock = threading.Lock()

    def __bool__(self) -> bool:
        return bool(self._faults)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        faults: list[Fault] = []
        for part in (p.strip() for p in spec.split(",")):
            if not part:
                continue
            head, at, tail = part.partition("@")
            if not at:
                raise ServiceError(f"fault {part!r} is missing '@NTH'")
            action, eq, arg_text = head.partition("=")
            if action not in _ACTIONS:
                raise ServiceError(
                    f"unknown fault action {action!r} (expected one of {_ACTIONS})"
                )
            nth_text, colon, call = tail.partition(":")
            try:
                nth = int(nth_text)
                arg = float(arg_text) if eq else 0.0
            except ValueError as exc:
                raise ServiceError(f"malformed fault {part!r}: {exc}") from exc
            if nth < 1:
                raise ServiceError(f"fault {part!r}: NTH must be >= 1")
            if action == "stall" and not (math.isfinite(arg) and arg > 0):
                raise ServiceError(
                    f"fault {part!r}: stall needs '=SECONDS', finite and > 0"
                )
            if action != "stall" and eq:
                raise ServiceError(f"fault {part!r}: {action} takes no '=ARG'")
            if call and call not in CALLS:
                raise ServiceError(
                    f"fault {part!r}: unknown call {call!r} "
                    f"(expected one of {CALLS})"
                )
            faults.append(
                Fault(action=action, nth=nth, arg=arg, call=call or None)
            )
        return cls(faults)

    @classmethod
    def from_env(cls, environ=os.environ) -> "FaultPlan":
        return cls.from_spec(environ.get(FAULTS_ENV, ""))

    def check(self, call: str) -> Fault | None:
        """Count one protocol call; return the fault that fires, if any.

        Every armed fault matching ``call`` advances its counter; the
        first one whose counter reaches its ``nth`` fires (at most one
        per call).
        """
        with self._lock:
            fired = None
            for fault in self._faults:
                if fault.matches(call) and fault.fire() and fired is None:
                    fired = fault
            return fired
