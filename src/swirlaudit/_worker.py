"""One worker thread sharing a list of tasks with its caller: every second thread of the package."""

from typing import Any, Callable, Sequence


def share_with_worker(tasks: Sequence[Callable[[], Any]],
                      own: Callable[[], Any] = lambda: None) -> tuple[Any, list]:
    """Run ``own()`` on this thread and ``tasks`` on it and one worker; return ``own()``'s
    result and the tasks' results in task order.  The worker takes the tasks from the head;
    this thread runs ``own()``, then takes the unstarted ones from the tail until the worker
    has started the next, so both finish together.  ``own``'s error is raised, or else the
    first in task order, whichever thread ran it.  The worker is joined before this returns
    or raises, so a process that forks after it never forks with a live thread."""
    from concurrent.futures import Future, ThreadPoolExecutor  # here, so that importing stays fast

    with ThreadPoolExecutor(max_workers=1) as worker:
        queued = [worker.submit(task) for task in tasks]
        mine = own()
        for k in reversed(range(len(tasks))):
            if not queued[k].cancel():  # the worker has started it, and every task before it
                break
            queued[k] = Future()
            try:
                queued[k].set_result(tasks[k]())
            except Exception as error:  # kept, as the worker keeps its own, to raise in task order
                queued[k].set_exception(error)
    return mine, [done.result() for done in queued]
