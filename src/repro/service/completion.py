"""`CompletionLog`: a long-lived service's completed results, in job-id order.

Both front doors hand back every result so far, in job-id order, on each
``drain()``/``results()``.  Completions arrive roughly in id order, but
not exactly: a wide sharded job finishes after the narrow batch admitted
behind it, a fault retry lands later than its neighbours, and a rejected
submission leaves an id gap.  The log appends each completion, and a
snapshot sorts only the results recorded since the previous one.  They
are merged in below the settled tail only when an id falls below it, so
a snapshot costs work proportional to the completions since the last
call plus one list copy -- not to everything the service has served.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import List, Optional

_job_id = attrgetter("job_id")


class CompletionLog:
    """Completed results (anything with a ``job_id``), one per job."""

    def __init__(self) -> None:
        self._ordered: List = []  # settled, in job-id order
        self._ids: List[int] = []  # job ids of ``_ordered``, for bisection
        self._fresh: List = []  # recorded since the last settle

    def add(self, result) -> None:
        self._fresh.append(result)

    def snapshot(self) -> List:
        """A fresh list of every result so far, in job-id order."""
        self._settle()
        return self._ordered.copy()

    def get(self, job_id: int) -> Optional[object]:
        """The result of *job_id*, or None if it has not completed."""
        self._settle()
        ids = self._ids
        i = bisect_left(ids, job_id)
        if i < len(ids) and ids[i] == job_id:
            return self._ordered[i]
        return None

    def _settle(self) -> None:
        if not self._fresh:
            return
        fresh = sorted(self._fresh, key=_job_id)
        self._fresh = []
        ordered, ids = self._ordered, self._ids
        if ids and fresh[0].job_id < ids[-1]:
            # Out-of-order completion: re-sort only the tail it lands in
            # (two sorted runs, which the sort merges in linear time).
            cut = bisect_left(ids, fresh[0].job_id)
            fresh = sorted(ordered[cut:] + fresh, key=_job_id)
            del ordered[cut:]
            del ids[cut:]
        ordered.extend(fresh)
        ids.extend(map(_job_id, fresh))
