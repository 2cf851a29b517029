"""Fit several models on one training matrix with every CPU the process may use.

`fit_models` cuts the work into units: each LR, DT or XGB model is one unit,
and so is each tree of a random forest. Whole models come first, in config
order, and forest trees last: the trees are many and small, so they fill the
gaps. A forest's rank codes and seed streams are computed once, before the
fork.

The calling process forks one child per CPU in its affinity mask, capped by
the number of units, and fits nothing while they run: which units a worker
gets depends on timing, so a calling process that fitted some of them would
end with a peak memory that changed from one run to the next. The children
pull unit ranges from one pipe, written in full and closed before the fork,
so a child that finishes early takes the next unit. A child keeps the
results of its units that did not raise until the pipe is empty, pickles
them back through a pipe of its own and ends with `os._exit`.

One rule covers every model that the children did not return whole: one of
its units raised, its child died, the system refused a pipe or a fork, or
nothing was forked (one unit, one allowed CPU, another thread running, which
makes forking unsafe, or no `os.sched_getaffinity`). The calling process
fits that whole model once with `fit_model` and keeps the model or its error.

Every unit runs the same code on the same arrays as `fit_model`, so the
models are bit-identical whatever the number of workers. The children's
memory is not part of the parent's resource usage (`RUSAGE_SELF`).
"""

from __future__ import annotations

import fcntl
import os
import pickle
import signal
import struct
import threading

import numpy as np

from .common import FittedModel, fit_model
from .forest import forest_model, grow_tree, plan_forest

# One queue item: a range [lo, hi) of unit indices. Each read takes one whole
# item: the pipe is filled before any worker reads, and every item has this size.
_ITEM = struct.Struct("=II")


def allowed_cpus():
    """The number of CPUs this process may run on; 1 where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def fit_models(X, y, cfgs):
    """For each config, in config order, what `fit_model(X, y, cfg)` gives:
    the FittedModel, or the exception it raised, so a caller can report
    errors in the order a serial loop would."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cpus = allowed_cpus() if threading.active_count() == 1 else 1
    units = [(m, None) for m, cfg in enumerate(cfgs) if cfg.family != "rf"]
    plans = {}
    for m, cfg in enumerate(cfgs):
        if cfg.family != "rf" or cpus == 1:
            continue
        try:
            plans[m] = plan_forest(X, y, cfg)
        except Exception:  # the forest gets no units, so this process fits it whole
            continue
        units.extend((m, i) for i in range(cfg.n_trees))

    def run(k):
        m, i = units[k]
        if i is None:
            return fit_model(X, y, cfgs[m])
        return grow_tree(y, cfgs[m], plans[m], i)

    workers = min(cpus, len(units))
    results = _fan_out(len(units), workers, run) if workers > 1 else {}
    per_model = {}
    for k, (m, _) in enumerate(units):
        per_model.setdefault(m, []).append(k)
    models = []
    for m, cfg in enumerate(cfgs):
        ks = per_model.get(m, [])
        if not ks or any(k not in results for k in ks):  # not returned whole by the children
            try:
                models.append(fit_model(X, y, cfg))
            except Exception as exc:  # kept in its place, for the caller to raise
                models.append(exc)
        elif cfg.family == "rf":
            forest = forest_model(cfg, plans[m], [results[k] for k in ks])
            models.append(FittedModel(family="rf", model=forest, n_features=X.shape[1]))
        else:
            models.append(results[ks[0]])
    return models


def _work(ranges, run):
    """{unit: result} of every unit of the ranges that did not raise."""
    results = {}
    for lo, hi in ranges:
        for k in range(lo, hi):
            try:
                results[k] = run(k)
            except Exception:  # the calling process fits this unit's model whole
                pass
    return results


def _pulled(fd):
    """Queue items read one at a time until the queue is empty."""
    while item := os.read(fd, _ITEM.size):
        yield _ITEM.unpack(item)


def _fan_out(n_units, workers, run):
    """_work over all units by up to `workers` forked children: {unit: result}
    of the units that the children returned; {} if the system refused the
    queue pipe. This process runs no unit."""
    try:
        queue_r, queue_w = os.pipe()
    except OSError:
        return {}
    children = {}  # pid -> file reading that child's results
    try:
        # Several units per item only when there are more units than the pipe holds.
        slots = fcntl.fcntl(queue_w, fcntl.F_GETPIPE_SZ) // _ITEM.size
        per_item = -(-n_units // slots)
        items = (_ITEM.pack(lo, min(lo + per_item, n_units)) for lo in range(0, n_units, per_item))
        os.write(queue_w, b"".join(items))
        os.close(queue_w)
        queue_w = None
        for _ in range(workers):
            if not _fork_child(queue_r, run, children):
                break
        results = {}
        for pid, fh in list(children.items()):
            payload = fh.read()
            fh.close()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if os.waitstatus_to_exitcode(status) == 0:  # the child wrote all of it
                results.update(pickle.loads(payload))
        return results
    finally:
        for pid, fh in children.items():
            fh.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        os.close(queue_r)
        if queue_w is not None:
            os.close(queue_w)


def _fork_child(queue_r, run, children):
    """Fork one worker and add it to children; False if the system refused."""
    try:
        result_r, result_w = os.pipe()
    except OSError:
        return False
    reader = open(result_r, "rb")
    # SIGINT stays blocked until the child is in children (parent) or inside
    # the block that ends it with os._exit (child), so an interrupt can
    # neither leak a child nor let one run the caller's code.
    old_mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        status = 1
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)
            reader.close()
            for fh in children.values():
                fh.close()
            payload = pickle.dumps(_work(_pulled(queue_r), run), pickle.HIGHEST_PROTOCOL)
            with open(result_w, "wb") as out:
                out.write(payload)
            status = 0
        finally:
            os._exit(status)
    if pid is not None:
        children[pid] = reader
    os.close(result_w)
    signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)
    if pid is None:
        reader.close()
        return False
    return True
