"""Per-event-loop wakeups for parked verified waits.

The thread driver wakes waiters through ``Condition.notify_all``; an
asyncio task cannot sleep on a :class:`threading.Condition` without
stalling its whole loop.  Instead, every async verified wait *parks* on
its loop's :class:`LoopNotifier` and re-checks its predicate when woken.
A wake is the only thing that ends a park; no timer backs it up.

Wake sources:

* async synchronizer adapters, after any state change that could
  satisfy a wait (an arrival that advances the observed phase, a
  barrier trip, a release, a deregistration);
* progress made on another thread on a shared synchronizer: its
  :func:`repro.runtime.observer.notify_waiters` runs the hook here, which
  wakes every loop with parked waits but the running one (whose
  adapters wake it, and only on progress);
* :meth:`repro.aio.tasks.AioTask.cancel` — the detection monitor's
  thread condemns a task, and the wake makes it observe the report;
* task teardown (termination deregisters the task everywhere, which can
  complete events its peers wait on).

A wait parks before it lets go of the condition its failed predicate
check held, and the hook runs under that condition: no wake is lost.
"""

from __future__ import annotations

import asyncio
import weakref
from typing import Optional, Set

from repro.runtime.observer import register_wake_hook

_notifiers: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
#: The notifiers with parked waits: the wake hook's targets.
_parking: Set["LoopNotifier"] = set()


class LoopNotifier:
    """Wakes every parked verified wait of one event loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._parked: Set[asyncio.Future] = set()
        self._wake_pending = False

    # -- waking (any thread) -------------------------------------------
    def wake(self) -> None:
        """Wake all parked waits; safe from any thread.

        Wakes coalesce, so a loop that is not running queues one.  A
        closed loop has nothing parked worth waking — the RuntimeError
        of scheduling onto it is swallowed, and the hook forgets it.
        """
        if self._wake_pending and not self._loop.is_closed():
            return
        self._wake_pending = True
        try:
            self._loop.call_soon_threadsafe(self.wake_local)
        except RuntimeError:
            _parking.discard(self)

    def wake_local(self) -> None:
        """Wake all parked waits; loop thread only."""
        self._wake_pending = False
        parked, self._parked = self._parked, set()
        _parking.discard(self)
        for fut in parked:
            if not fut.done():
                fut.set_result(True)

    # -- parking (loop thread) -----------------------------------------
    def park(self) -> asyncio.Future:
        """Register one parked wait, under the condition of the failed
        predicate check; the future, awaited after letting go of it,
        resolves at the next wake."""
        fut = self._loop.create_future()
        self._parked.add(fut)
        _parking.add(self)
        return fut


def notifier_for(loop: Optional[asyncio.AbstractEventLoop] = None) -> LoopNotifier:
    """The (lazily created) notifier of ``loop`` (default: the running
    loop — raises :class:`RuntimeError` outside one)."""
    if loop is None:
        loop = asyncio.get_running_loop()
    notifier = _notifiers.get(loop)
    if notifier is None:
        notifier = LoopNotifier(loop)
        _notifiers[loop] = notifier
    return notifier


def wake_running_loop() -> None:
    """Wake the running loop's parked waits, if any; no-op outside a
    loop (a thread-backend caller touching a shared synchronizer)."""
    try:
        loop = asyncio.get_running_loop()
    except RuntimeError:
        return
    notifier = _notifiers.get(loop)
    if notifier is not None:
        notifier.wake_local()


def _wake_other_loops() -> None:
    """The runtime's wake hook (see the module docstring)."""
    if not _parking:
        return
    running = asyncio._get_running_loop()
    for notifier in tuple(_parking):
        if notifier._loop is not running:
            notifier.wake()


register_wake_hook(_wake_other_loops)
