"""The two-core helper and the per-thread gradient tape it relies on."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from eviq import autodiff as ad
from eviq import cores

SRC = Path(__file__).resolve().parent.parent / "src"


def _where(x):
    return x, threading.get_ident()


def test_both_returns_each_half_in_order(cpus):
    (a, ta), (b, tb) = cores.both(_where, "first", "second")
    assert (a, b) == ("first", "second")
    assert ta == threading.get_ident()
    assert (tb != ta) == (cpus == 2)


def test_one_cpu_starts_no_worker(monkeypatch):
    monkeypatch.setattr(cores.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cores, "_POOL", None)
    before = threading.active_count()
    cores.both(_where, 1, 2)
    assert cores._POOL is None and threading.active_count() == before


def _on_cpu(cpu, fn):
    """fn() on a fresh thread pinned to one CPU; the caller's mask stays."""
    out = []

    def run():
        os.sched_setaffinity(0, {cpu})
        out.append(fn())

    th = threading.Thread(target=run, daemon=True)
    th.start()
    th.join(timeout=30)
    return out[0]


def test_cpu_reads_the_cpu_the_thread_runs_on():
    for cpu in sorted(os.sched_getaffinity(0)):
        assert _on_cpu(cpu, cores._cpu) == cpu


def test_worker_half_runs_off_the_callers_cpu(monkeypatch):
    mask = os.sched_getaffinity(0)
    if len(mask) < 2:
        pytest.skip("one CPU: both halves run inline")
    submitted = []

    def cpu():
        submitted.append(real())
        return submitted[-1]

    real = cores._cpu
    monkeypatch.setattr(cores, "_cpu", cpu)
    for _ in range(20):
        _, (worker_mask, worker_cpu) = cores.both(
            lambda x: (os.sched_getaffinity(0), real()), 1, 2)
        assert submitted[-1] not in worker_mask
        assert worker_cpu in worker_mask and worker_mask <= mask
    assert os.sched_getaffinity(0) == mask


def _fail(kind):
    if kind == "slow":
        time.sleep(0.2)
        return "done"
    raise {"shape": ad.ShapeError, "numeric": ad.NumericError}[kind](kind)


@pytest.mark.parametrize("first, second, raised", [
    ("shape", "slow", ad.ShapeError),
    ("slow", "numeric", ad.NumericError),
    ("shape", "numeric", ad.ShapeError),
])
def test_both_waits_for_both_halves_then_raises_the_first_error(cpus, first, second,
                                                                  raised):
    finished = []

    def half(kind):
        try:
            return _fail(kind)
        finally:
            finished.append(kind)

    with pytest.raises(raised):
        cores.both(half, first, second)
    if cpus == 2 or first != "shape":
        assert sorted(finished) == sorted([first, second])


@pytest.mark.parametrize("sizes", [[], [5], [3, 3], [1, 9, 2, 8, 2, 2],
                                   list(range(1, 30)), [4] * 7])
def test_halves_cover_every_index_once_and_balance(sizes):
    a, b = cores.halves(sizes)
    assert sorted(a + b) == list(range(len(sizes)))
    assert a == sorted(a) and b == sorted(b)
    gap = abs(sum(sizes[i] for i in a) - sum(sizes[i] for i in b))
    assert gap <= max(sizes, default=0)
    assert cores.halves(list(sizes)) == (a, b)


# --- the per-thread tape ----------------------------------------------------

def test_op_on_the_worker_records_nothing_onto_the_callers_tape(monkeypatch):
    monkeypatch.setattr(cores.os, "sched_getaffinity", lambda pid: {0, 1})
    x = ad.Tensor(np.ones(2))

    def op(c):
        ad.scale(x, c)
        return threading.get_ident(), ad._active()

    with ad.tape() as t:
        (caller, on_caller), (worker, on_worker) = cores.both(op, 2.0, 3.0)
        assert ad._active() is t
    assert worker != caller
    assert on_caller is t and on_worker is None
    assert len(t.nodes) == 1


def test_tape_and_no_tape_nest_per_thread():
    barrier = threading.Barrier(2, timeout=30)
    seen = {}

    def run(name):
        x = ad.Tensor(np.ones(2))
        with ad.tape() as outer:
            barrier.wait()
            ad.scale(x, 1.0)
            with ad.no_tape():
                barrier.wait()
                ad.scale(x, 2.0)
                with ad.tape() as inner:
                    barrier.wait()
                    ad.scale(x, 3.0)
                    ad.scale(x, 4.0)
                    barrier.wait()
                barrier.wait()
                ad.scale(x, 5.0)
                idle = ad._active()
            barrier.wait()
            ad.scale(x, 6.0)
            back = ad._active() is outer
        seen[name] = (len(outer.nodes), len(inner.nodes), idle, back, ad._active())

    threads = [threading.Thread(target=run, args=(n,), daemon=True) for n in "ab"]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
    assert not any(th.is_alive() for th in threads)
    assert seen == {n: (2, 2, None, True, None) for n in "ab"}


def test_importing_eviq_starts_no_thread():
    modules = sorted(p.stem for p in (SRC / "eviq").glob("*.py") if p.stem != "__init__")
    code = ("import threading\n"
            + "".join(f"import eviq.{m}\n" for m in modules)
            + "print(threading.active_count())\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "1"


def test_importing_eviq_leaves_numpys_openblas_on_one_thread():
    # read back through the bundled OpenBLAS, in a process whose environment
    # sets no BLAS thread count, so the library starts at its own default
    code = ("import ctypes, pathlib, numpy\n"
            "libs = pathlib.Path(numpy.__file__).parent.parent / 'numpy.libs'\n"
            "get = None\n"
            "for lib in libs.glob('libscipy_openblas*.so*'):\n"
            "    get = getattr(ctypes.CDLL(str(lib)), 'scipy_openblas_get_num_threads64_', None)\n"
            "if get is None:\n"
            "    print('absent')\n"
            "else:\n"
            "    get.argtypes, get.restype = [], ctypes.c_int\n"
            "    before = get()\n"
            "    import eviq\n"
            "    print(before, get())\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    out = subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": str(SRC)},
                         check=True, capture_output=True, text=True, timeout=120)
    if out.stdout.strip() == "absent":
        pytest.skip("numpy ships no scipy_openblas with a thread-count symbol")
    before, after = map(int, out.stdout.split())
    assert before >= 1 and after == 1
