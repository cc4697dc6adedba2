"""The two-thread schedule of `spec solve` and `spec converge`.

With two CPUs a run assembles and solves the coarser levels, and then
solves the finest delta-prime pencil, as three tasks on a worker thread,
beside the finest level's assembly, its delta solve and the truncation
studies on the calling thread (spectral_analysis.solve_levels).  Its
outputs must not depend on that, at most two finest-level factors may be
alive at a time (one with one CPU), and a failure on either thread must
end the run as a serial run would, with no thread left behind.
"""

import json
import math
import os
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from leakyfem import cli, eigensolver, femforms, pipeline
from leakyfem import spectral_analysis as sa
from leakyfem.errors import DomainError, SolverError

WORKER = "leakyfem-levels"
NO_BOXES = "no boxes"


def _cfg(outdir, truncation_refinements=1):
    """A small broken-line run; truncation_refinements None studies the
    finest level, and NO_BOXES asks for no truncation study."""
    dcfg = {"h": 0.8, "refinements": 2}
    if truncation_refinements != NO_BOXES:
        dcfg["box_halfwidths"] = [2.5, 4.0]
    if truncation_refinements not in (None, NO_BOXES):
        dcfg["truncation_refinements"] = truncation_refinements
    return {
        "geometry": {"kind": "broken_line", "theta": math.pi / 4,
                     "halfwidth": 4.0},
        "material": {"alpha": 2.0, "beta": 2.0},
        "discretization": dcfg,
        "solver": {"k": 2, "tol": 1e-9},
        "outputs": {"directory": str(outdir)},
    }


def _write(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _spy_cascade(monkeypatch):
    """(thread name, operator, levels solved after the call) per
    pipeline.cascade_solve call."""
    calls = []
    cascade = pipeline.cascade_solve

    def spied(forms_list, which, *args, **kwargs):
        res = cascade(forms_list, which, *args, **kwargs)
        calls.append((threading.current_thread().name, which, len(res)))
        return res

    monkeypatch.setattr(pipeline, "cascade_solve", spied)
    return calls


def _strip(text):
    return "\n".join(l for l in text.splitlines() if '"timestamp"' not in l)


SOLVE_OUT = ("report.json", "report.csv")
CONVERGE_OUT = ("convergence.csv", "convergence.svg")


@pytest.mark.parametrize("command,outputs,truncation_refinements", [
    pytest.param("solve", SOLVE_OUT, 1, id="solve-outputs0"),
    pytest.param("converge", CONVERGE_OUT, 1, id="converge-outputs1"),
    pytest.param("solve", SOLVE_OUT, 0, id="solve-truncation0"),
    pytest.param("solve", SOLVE_OUT, 2, id="solve-truncation2"),
    pytest.param("solve", SOLVE_OUT, NO_BOXES, id="solve-no-boxes")])
def test_pipelined_outputs_equal_inline(tmp_path, monkeypatch, capsys,
                                        command, outputs,
                                        truncation_refinements):
    # a coarser level's studies and the finest level's take different
    # paths through solve_levels; so does a run without them
    p = _write(tmp_path / "cfg.json",
               _cfg(tmp_path / "out", truncation_refinements))
    calls = _spy_cascade(monkeypatch)
    runs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        calls.clear()
        out = tmp_path / f"cpus{cpus}"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the threads take turns often
        try:
            code = cli.main([command, "--config", p, "--out", str(out)])
        finally:
            sys.setswitchinterval(interval)
        runs.append((code, capsys.readouterr(),
                     [_strip((out / name).read_text()) for name in outputs]))
        on_worker = sorted((which, n) for name, which, n in calls
                           if name.startswith(WORKER))
        # the coarser levels and the finest delta-prime level go to the
        # worker only when two CPUs are free
        assert on_worker == ([] if cpus == 1 else [(sa.DELTA, 2),
                                                   (sa.DELTA_PRIME, 2),
                                                   (sa.DELTA_PRIME, 3)])
        assert len(calls) == 4
    assert runs[0] == runs[1]
    assert runs[0][0] in (cli.EXIT_STRICT, cli.EXIT_INDISTINGUISHABLE)


class _Factor:
    """A SuperLU factor that can be watched by weakref.finalize."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, b):
        return self.lu.solve(b)

    def __getattr__(self, name):
        return getattr(self.lu, name)


@pytest.mark.parametrize("truncation_refinements", [1, None])
@pytest.mark.parametrize("cpus", [1, 2], ids=["cpus1", "cpus2"])
def test_finest_factors_alive_at_a_time(tmp_path, monkeypatch, cpus,
                                        truncation_refinements):
    # each thread holds one finest factor at a time: the worker's finest
    # delta-prime one beside the calling thread's finest delta one; with
    # one CPU the worker's tasks run on the calling thread, so only one
    # finest factor is ever alive
    live, snapshots, sizes = {}, [], []
    lock = threading.Lock()
    splu = eigensolver.splu

    def release(key):
        with lock:
            del live[key]

    def spied(S, *args, **kwargs):
        lu = _Factor(splu(S, *args, **kwargs))
        with lock:
            key = len(sizes)
            sizes.append(S.shape[0])
            live[key] = S.shape[0]
            snapshots.append(list(live.values()))
        weakref.finalize(lu, release, key)
        return lu

    monkeypatch.setattr(eigensolver, "splu", spied)
    _cpus(monkeypatch, cpus)
    p = _write(tmp_path / "cfg.json",
               _cfg(tmp_path / "out", truncation_refinements))
    assert cli.main(["solve", "--config", p]) in (
        cli.EXIT_STRICT, cli.EXIT_INDISTINGUISHABLE)
    # a level has about 4 times the dofs of the one below, so every
    # factor of more than half the largest size is a finest-level one
    finest = max(sizes) / 2
    assert sum(n > finest for n in sizes) >= 2
    assert max(sum(n > finest for n in snap) for snap in snapshots) <= cpus
    assert not live


def test_worker_failure_exits_1_like_inline(tmp_path, monkeypatch, capsys):
    # the shift search runs on the coarsest level only, which the worker
    # solves; its failure ends the run with the serial run's one line
    where = []

    def failing(A, M):
        where.append(threading.current_thread().name)
        raise SolverError("injected shift search failure")

    monkeypatch.setattr(eigensolver, "lower_shift", failing)
    p = _write(tmp_path / "cfg.json", _cfg(tmp_path / "out"))
    errs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        threads = threading.active_count()
        where.clear()
        assert cli.main(["solve", "--config", p]) == cli.EXIT_ERROR
        errs.append(capsys.readouterr())
        assert threading.active_count() == threads
        assert where and all(name.startswith(WORKER) == (cpus == 2)
                             for name in where)
    assert errs[0] == errs[1]
    assert errs[0].err == ("errors.SolverError: injected shift search "
                           "failure\n")
    assert not (tmp_path / "out").exists()


def test_main_failure_cancels_queued_tasks(tmp_path, monkeypatch, capsys):
    # the worker holds the coarse delta cascade until the run shuts it
    # down; the finest assembly fails on the calling thread meanwhile, so
    # the queued delta-prime cascade and truncation study must never start
    started, gate = threading.Event(), threading.Event()

    class Gated(ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            gate.set()
            super().shutdown(wait=wait)

    cascade = pipeline.cascade_solve
    calls, truncations = [], []

    def held(forms_list, which, *args, **kwargs):
        calls.append(which)
        started.set()
        assert gate.wait(timeout=60)
        return cascade(forms_list, which, *args, **kwargs)

    assemble = femforms.assemble

    def failing_on_caller(mesh, material):
        if not threading.current_thread().name.startswith(WORKER):
            assert started.wait(timeout=60)
            raise DomainError("injected assembly failure")
        return assemble(mesh, material)

    truncation = sa.truncation_from_forms

    def spied(*args, **kwargs):
        truncations.append(args[1])
        return truncation(*args, **kwargs)

    monkeypatch.setattr(sa, "ThreadPoolExecutor", Gated)
    monkeypatch.setattr(pipeline, "cascade_solve", held)
    monkeypatch.setattr(femforms, "assemble", failing_on_caller)
    monkeypatch.setattr(sa, "truncation_from_forms", spied)
    _cpus(monkeypatch, 2)
    threads = threading.active_count()
    p = _write(tmp_path / "cfg.json", _cfg(tmp_path / "out"))
    assert cli.main(["solve", "--config", p]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == ("errors.DomainError: injected "
                                       "assembly failure\n")
    assert calls == [sa.DELTA]
    assert truncations == []
    assert threading.active_count() == threads


def test_finest_delta_does_not_wait_for_the_coarse_delta_prime(tmp_path,
                                                               monkeypatch):
    # the worker holds its coarse delta-prime cascade until the calling
    # thread starts the finest delta solve; a schedule that puts that
    # solve after the coarse delta-prime task waits out the timeout instead
    entered = threading.Event()
    waits = []
    cascade = pipeline.cascade_solve

    def spied(forms_list, which, *args, **kwargs):
        on_worker = threading.current_thread().name.startswith(WORKER)
        if which == sa.DELTA and not on_worker:
            entered.set()
        if which == sa.DELTA_PRIME and kwargs["results"] is None:
            assert on_worker
            waits.append(entered.wait(timeout=5))
        return cascade(forms_list, which, *args, **kwargs)

    monkeypatch.setattr(pipeline, "cascade_solve", spied)
    _cpus(monkeypatch, 2)
    p = _write(tmp_path / "cfg.json", _cfg(tmp_path / "out"))
    assert cli.main(["solve", "--config", p]) in (
        cli.EXIT_STRICT, cli.EXIT_INDISTINGUISHABLE)
    assert waits == [True]


def test_sweep_points_keep_one_thread_each(tmp_path, monkeypatch):
    # at --jobs 2 each point runs inline on its sweep thread, so the box
    # runs no more solver threads than CPUs; at --jobs 1 the one point
    # running at a time may use the second CPU
    cfg = _cfg(tmp_path / "out")
    cfg["sweep"] = {"parameter": "alpha", "values": [1.5, 2.0]}
    p = _write(tmp_path / "cfg.json", cfg)
    _cpus(monkeypatch, 2)
    sweeps = []
    calls = _spy_cascade(monkeypatch)
    for jobs in ("2", "1"):
        calls.clear()
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["sweep", "--config", p, "--jobs", jobs,
                         "--out", str(out)]) in (
            cli.EXIT_STRICT, cli.EXIT_INDISTINGUISHABLE)
        sweeps.append((out / "sweep.csv").read_text())
        on_worker = [name for name, _, _ in calls if name.startswith(WORKER)]
        assert len(calls) == 8
        # three of each point's four cascades: the coarse delta and
        # delta-prime levels and the finest delta-prime one
        assert len(on_worker) == (0 if jobs == "2" else 6)
    assert sweeps[0] == sweeps[1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_delta_failure_stops_the_delta_prime_levels(tmp_path, monkeypatch,
                                                    capsys, cpus):
    # a serial run solves every delta level before any delta-prime one, so
    # a failed coarsest delta solve ends the run before a delta-prime solve
    # or a truncation study starts
    calls, truncations = [], []

    def failing(forms_list, which, *args, **kwargs):
        calls.append(which)
        raise SolverError(f"injected {which} failure")

    truncation = sa.truncation_from_forms

    def spied(*args, **kwargs):
        truncations.append(args[1])
        return truncation(*args, **kwargs)

    monkeypatch.setattr(pipeline, "cascade_solve", failing)
    monkeypatch.setattr(sa, "truncation_from_forms", spied)
    _cpus(monkeypatch, cpus)
    p = _write(tmp_path / "cfg.json", _cfg(tmp_path / "out"))
    assert cli.main(["solve", "--config", p]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == (f"errors.SolverError: injected "
                                       f"{sa.DELTA} failure\n")
    assert calls == [sa.DELTA]
    assert truncations == []


@pytest.mark.parametrize("truncation_refinements", [1, None])
@pytest.mark.parametrize("cpus", [1, 2], ids=["cpus1", "cpus2"])
def test_finest_delta_prime_failure_comes_before_truncation(
        tmp_path, monkeypatch, capsys, cpus, truncation_refinements):
    # a serial run solves the finest delta-prime pencil before any
    # truncation study, so when both fail its error ends the run, whether
    # the studies are a coarser level's or the finest level's
    cascade = pipeline.cascade_solve

    def failing_finest_prime(forms_list, which, *args, **kwargs):
        if which == sa.DELTA_PRIME and kwargs["results"] is not None:
            raise SolverError("injected finest delta-prime failure")
        return cascade(forms_list, which, *args, **kwargs)

    def failing_study(*args, **kwargs):
        raise SolverError("injected truncation failure")

    monkeypatch.setattr(pipeline, "cascade_solve", failing_finest_prime)
    monkeypatch.setattr(sa, "truncation_from_forms", failing_study)
    _cpus(monkeypatch, cpus)
    threads = threading.active_count()
    p = _write(tmp_path / "cfg.json",
               _cfg(tmp_path / "out", truncation_refinements))
    assert cli.main(["solve", "--config", p]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == ("errors.SolverError: injected finest "
                                       "delta-prime failure\n")
    assert threading.active_count() == threads
    assert not (tmp_path / "out").exists()
