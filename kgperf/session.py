"""Run directory, Ray session and process lifetime for one benchmark run.

Everything a run reads or writes lives under ``<checkout>/.kgperf/<id>/``:
inputs, outputs, the fixture maps the DuckDB replay joins against, the
skew-probe cache and the span records of a traced run. Ray's session
directory goes there too when its socket paths fit the 107-byte limit
on Unix socket paths; for a longer checkout path it goes to a short
directory under the system temp dir. Both are removed on every exit
path, and every process the run started is stopped and waited for.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time

# Ray's longest socket path, <temp>/session_<date>_<pid>/sockets/plasma_store,
# is 64 bytes past the temp dir with a 7-digit pid; the limit is 107.
_MAX_RAY_TEMP_LEN = 43
#: Ray objects this benchmark stores are a few MB; a fixed store keeps
#: the shared-memory reservation off the default 30% of host RAM.
_OBJECT_STORE_BYTES = 512 << 20


class TimeLimit(BaseException):
    """The run went past its own time limit. A BaseException, so the
    per-operation ``except Exception`` of the loop does not swallow it."""


def _on_alarm(signum, frame):
    raise TimeLimit("run exceeded its time limit")


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces: fields restart after ')'
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants() -> list[int]:
    """Every live process below this one."""
    kids = _children()
    out, todo = [], [os.getpid()]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.append(k)
            todo.append(k)
    return out


def _pss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass  # the process ended between listing and reading
    return 0


def tree_pss_mib() -> float:
    """Summed PSS of this process and all its descendants, in MiB."""
    pids = [os.getpid()] + descendants()
    return sum(_pss_kib(p) for p in pids) / 1024.0


class MemorySampler:
    """Samples :func:`tree_pss_mib` on a thread inside its ``with``
    block and keeps the peak. The block brackets the timed part only, so
    checks made by the benchmark process stay out."""

    interval_s = 0.25

    def __init__(self):
        self.peak_mib = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _loop(self):
        while not self._stop.is_set():
            self.peak_mib = max(self.peak_mib, tree_pss_mib())
            self._stop.wait(self.interval_s)

    def __enter__(self):
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        self.peak_mib = max(self.peak_mib, tree_pss_mib())
        return False


class RunDir:
    """The per-run directory under ``<checkout>/.kgperf``."""

    def __init__(self, checkout: str):
        # named by pid, which no live process shares, and short, so
        # Ray's sockets fit below it for checkout paths up to ~25 bytes
        self.path = os.path.join(checkout, ".kgperf", str(os.getpid()))
        shutil.rmtree(self.path, ignore_errors=True)  # a dead run's
        os.makedirs(self.path)

    def sub(self, *names: str) -> str:
        return os.path.join(self.path, *names)

    def remove(self):
        shutil.rmtree(self.path, ignore_errors=True)
        base = os.path.dirname(self.path)
        try:
            os.rmdir(base)  # only when no other run is using it
        except OSError:
            pass


class Session:
    """One local Ray session with ``cpus`` CPU slots for one run.

    ``trace_hook`` names a ``module.function`` that Ray runs in every
    worker process as it starts (the traced run installs its spans
    there). The checkout goes on every worker's import path, so the
    run works from any working directory. ``time_limit_s`` arms an
    alarm that raises :class:`TimeLimit` in the benchmark process;
    teardown still runs."""

    def __init__(self, checkout: str, run_dir: RunDir, cpus: int,
                 time_limit_s: int, env: dict[str, str] | None = None,
                 trace_hook: str | None = None):
        self.checkout = checkout
        self.run_dir = run_dir
        self.cpus = cpus
        self.time_limit_s = time_limit_s
        self.env = dict(env or {})
        self.trace_hook = trace_hook
        self.ray_temp: str | None = None
        self._own_ray_temp = False
        self._old_alarm = None
        self._old_env: dict[str, str | None] = {}

    def _ray_temp_dir(self) -> str:
        inside = self.run_dir.sub("r")
        if len(inside) <= _MAX_RAY_TEMP_LEN:
            os.makedirs(inside)
            return inside
        self._own_ray_temp = True
        return tempfile.mkdtemp(prefix="kgperf-")

    def _set_env(self, values: dict[str, str]):
        for k, v in values.items():
            self._old_env.setdefault(k, os.environ.get(k))
            os.environ[k] = v

    def __enter__(self):
        self._old_alarm = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(self.time_limit_s)
        try:
            self._start()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _start(self):
        import ray

        path = os.environ.get("PYTHONPATH")
        self._set_env({
            # workers inherit the raylet's environment, which is ours
            "PYTHONPATH": (self.checkout if not path
                           else os.pathsep.join([self.checkout, path])),
            "RAY_USAGE_STATS_ENABLED": "0",
            **self.env,
        })
        self.ray_temp = self._ray_temp_dir()
        runtime_env = ({"worker_process_setup_hook": self.trace_hook}
                       if self.trace_hook else None)
        ray.init(num_cpus=self.cpus, include_dashboard=False,
                 log_to_driver=False, logging_level="ERROR",
                 object_store_memory=_OBJECT_STORE_BYTES,
                 runtime_env=runtime_env, _temp_dir=self.ray_temp)
        from ray.data import DataContext
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def __exit__(self, *exc):
        signal.alarm(0)
        try:
            self._stop_ray()
        finally:
            if self._old_alarm is not None:
                signal.signal(signal.SIGALRM, self._old_alarm)
            for k, v in self._old_env.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return False

    def _stop_ray(self):
        import ray

        started = descendants()
        try:
            if ray.is_initialized():
                ray.shutdown()
        finally:
            # workers orphaned by the shutdown leave our process tree,
            # so survivors are looked up by pid, not by parentage
            _kill_and_wait([p for p in started if _alive(p)])
            if self.ray_temp and self._own_ray_temp:
                shutil.rmtree(self.ray_temp, ignore_errors=True)


def _kill_and_wait(pids: list[int], timeout_s: float = 20.0):
    """SIGTERM, then SIGKILL after a grace period; return once every
    pid is gone or reaped."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for p in pids:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout_s / 2
        while pids and time.monotonic() < deadline:
            pids = [p for p in pids if _alive(p)]
            time.sleep(0.05)
        if not pids:
            return


def _alive(pid: int) -> bool:
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)  # reap our own children
        if done == pid:
            return False
    except ChildProcessError:
        pass  # not our child: its parent reaps it
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().split(") ")[-1][:1] != "Z"
    except OSError:
        return False
