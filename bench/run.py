"""Benchmark of the lobdiff command-line interface.

Run from the root of a lobdiff checkout:

    python3 bench/run.py --workload tape_poisson --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --quick

A run times one cold ``import lobdiff.cli`` in a fresh interpreter
(``setup_s``), then repeats whole rounds of the workload's six CLI commands
for about ``--seconds`` from the run's start: it begins another round while
at least half a round's time is left. The first round always runs every
command as ``python3 -m lobdiff.cli`` in a child process; it gives the peak
RSS and warms the file cache. With ``--trace 0`` the following rounds run
each command through ``lobdiff.cli.main`` in a fork of this process, made
after ``import lobdiff.cli``: every command starts from a freshly imported
package, as a CLI call does, but without the interpreter start that
``setup_s`` measures. The run reports each command's fastest time over
these forked rounds. With ``--trace 1`` the second round runs the
commands inside this process, and the following rounds run them inside
this process with lobdiff's public functions wrapped (see ``tracing.py``);
the run reports the per-layer metrics as medians over the traced rounds,
and the tracing overhead against the second round.

Every command's outputs are checked by ``checks.py``, which does not use
lobdiff. Outputs must be byte-identical (``run_meta.json`` aside) across
the rounds of one run, traced or not; a round whose outputs match an
earlier round's inherits that round's verdict. An operation fails on an
exit code other than 0 or 1, a traceback or a failed check. Exit code 1 is
the command's own Monte Carlo verdict; it is printed beside the operation
and is not a failure. ``--quick`` runs each workload at reduced size, one
round of each kind.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

import checks
import tracing
import workloads

STARTED = time.perf_counter()

E2E_UNITS = {name: "s" for _, name in workloads.OPS}
E2E_UNITS.update({"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"})
CHILD_TIMEOUT_S = 120.0
MODES = ("child", "fork", "in-process", "traced")
VERDICT_FILES = {
    "pup": "pup_report.json",
    "duration": "duration_report.json",
    "duration-drift": "duration_report.json",
    "validate-fclt": "fclt_report.json",
}


class Op:
    """One command of one round: how it ran and what it wrote."""

    def __init__(self, name, size, out_dir):
        self.name, self.size, self.out_dir = name, size, out_dir
        self.wall_s = self.rss_mb = None
        self.exit = None
        self.traceback = False
        self.hashes = {}
        self.failures = []
        self.stat_checks = 0

    def collect(self):
        """Hash every output file except the wall-clock sidecar."""
        if os.path.isdir(self.out_dir):
            for name in sorted(os.listdir(self.out_dir)):
                if name != "run_meta.json":
                    with open(os.path.join(self.out_dir, name), "rb") as fh:
                        self.hashes[name] = hashlib.sha256(fh.read()).hexdigest()

    @property
    def failed(self):
        return self.exit not in (0, 1) or self.traceback or bool(self.failures)

    def verdict(self):
        """Names of the command's own failed checks when it exited 1."""
        if self.exit != 1 or self.name not in VERDICT_FILES:
            return []
        with open(os.path.join(self.out_dir, VERDICT_FILES[self.name]), encoding="utf-8") as fh:
            return [c["metric"] for c in json.load(fh)["checks"] if not c["passed"]]


def stop(pid):
    """Kill a child that is still running and wait until it has ended."""
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def spawn(argv, env, log_path):
    """Run a child to completion: (wall seconds, peak RSS in MB, exit code).

    A child still running after CHILD_TIMEOUT_S is killed, so a hung
    command fails its operation instead of stalling the run.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            stop(proc.pid)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_forked(cli, argv, log_path):
    """Run one command through ``lobdiff.cli.main`` in a fork of this
    process: (wall seconds, exit code). The wall time runs from the fork to
    the child being reaped. A child still running after CHILD_TIMEOUT_S is
    killed."""
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            sys.stdout = sys.stderr = open(1, "w", buffering=1, encoding="utf-8", closefd=False)
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code if isinstance(code, int) else 70)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, _ = os.wait4(pid, 0)
    except BaseException:
        stop(pid)
        raise
    finally:
        watchdog.cancel()
    return time.perf_counter() - t0, os.waitstatus_to_exitcode(status)


def run_in_process(cli, argv, tracer, log_path):
    """Run one command through ``lobdiff.cli.main`` under `tracer`."""
    with open(log_path, "w", encoding="utf-8") as log:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            t0 = time.perf_counter()
            try:
                with tracer.span("cli." + argv[0]):
                    code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = None
            return time.perf_counter() - t0, code


class Runner:
    def __init__(self, root, seed):
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.reference = {}  # (op, size) -> (hashes, failures) of its first checked run
        self.nondeterministic = []
        self.cli = None

    def setup_seconds(self):
        """Wall time of a fresh interpreter importing lobdiff.cli."""
        wall, _, code = spawn(
            [sys.executable, "-c", "import lobdiff.cli"], self.env, os.devnull
        )
        if code != 0:
            raise RuntimeError(f"import lobdiff.cli failed with exit code {code}")
        return wall

    def import_cli(self):
        sys.path.insert(0, self.src)
        import lobdiff.cli

        where = os.path.realpath(os.path.dirname(lobdiff.cli.__file__))
        if where != os.path.realpath(os.path.join(self.src, "lobdiff")):
            raise RuntimeError(f"imported lobdiff from {where}, not from this checkout")
        self.cli = lobdiff.cli

    def run_round(self, round_dir, round_plan, mode, tracer=None):
        """Run one round, then check it; `mode` is one of MODES.

        lobdiff is imported into this process only for the first round that
        is not made of child processes. A child's peak RSS counts the peak
        RSS of the process that spawned it, so the child round must find
        this process small: without lobdiff and before any check has read a
        tape.
        """
        if mode != "child" and self.cli is None:
            self.import_cli()
        os.makedirs(round_dir)
        tape_dir = os.path.join(round_dir, "simulate-lob")
        sim_cfg = None
        ops = []
        cfgs = []
        for name, size in round_plan:
            op = Op(name, size, os.path.join(round_dir, name))
            cfg = workloads.config_for(name, size)
            cfg_path = os.path.join(round_dir, f"{name}.json")
            if cfg is not None:
                with open(cfg_path, "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh)
            if name == "simulate-lob":
                sim_cfg = cfg
            argv = workloads.argv_for(name, cfg_path, op.out_dir, self.seed, tape_dir)
            log_path = os.path.join(round_dir, f"{name}.log")
            if mode == "child":
                op.wall_s, op.rss_mb, op.exit = spawn(
                    [sys.executable, "-m", "lobdiff.cli"] + argv, self.env, log_path
                )
            elif mode == "fork":
                op.wall_s, op.exit = run_forked(self.cli, argv, log_path)
            else:
                op.wall_s, op.exit = run_in_process(self.cli, argv, tracer, log_path)
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                op.traceback = op.exit is None or "Traceback (most recent call last)" in fh.read()
            op.collect()
            ops.append(op)
            cfgs.append(cfg)
        for op, cfg in zip(ops, cfgs):
            self._check(op, cfg, tape_dir, sim_cfg)
        # The per-run false-alarm rate in checks.py holds only under this cap.
        if sum(op.stat_checks for op in ops) >= checks.MAX_STAT_CHECKS:
            raise RuntimeError("a round makes too many statistical checks")
        return ops

    def _check(self, op, cfg, tape_dir, sim_cfg):
        if op.exit not in (0, 1) or op.traceback:
            return
        key = (op.name, op.size)
        ref = self.reference.get(key)
        if ref is not None:
            if ref[0] == op.hashes:
                op.failures = list(ref[1])
                return
            self.nondeterministic.append(op.name)
        try:
            op.failures, op.stat_checks = checks.check_op(op.name, op.out_dir, cfg, tape_dir, sim_cfg)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            op.failures = [f"outputs unreadable: {exc!r}"]
        if ref is None:
            self.reference[key] = (op.hashes, op.failures)


def report_op(label, op):
    rss = f"{op.rss_mb:8.1f} MB" if op.rss_mb is not None else " " * 11
    if op.traceback:
        status = "FAILED: traceback"
    elif op.exit not in (0, 1):
        status = f"FAILED: exit {op.exit}"
    elif op.failures:
        status = "FAILED: " + "; ".join(op.failures)
    else:
        status = "checks ok"
    verdict = op.verdict() if not op.traceback else []
    if verdict:
        status += f"; exit 1, the command's own Monte Carlo verdict: {', '.join(verdict)}"
    print(f"{label} {op.name:<15} {op.size:<5} {op.wall_s:9.3f} s {rss} {status}", flush=True)


def run_workload(runner, workload, work_dir, deadline, traced, quick=False):
    """Rounds of one workload: {mode: [(ops, tracer)]}.

    Round 1 runs child processes. Untraced runs then repeat forked rounds.
    Traced runs make one in-process round without wrappers (the base of the
    tracing overhead) and then repeat traced rounds. ``--quick`` makes one
    round of each mode. A run begins another round while at least half of
    the last round's time is left before `deadline`, a
    ``time.perf_counter()`` value, so runs end close to it whatever the
    machine's speed.
    """
    round_plan = workloads.plan(workload, quick)
    if quick:
        first, repeat = ["child", "fork", "in-process"], "traced"
    elif traced:
        first, repeat = ["child", "in-process"], "traced"
    else:
        first, repeat = ["child"], "fork"
    rounds = {mode: [] for mode in MODES}
    previous = None
    k = 0
    while True:
        k += 1
        round_start = time.perf_counter()
        round_dir = os.path.join(work_dir, f"round{k}")
        mode = first[k - 1] if k <= len(first) else repeat
        tracer = tracing.Tracer()
        with tracer.patched() if mode == "traced" else contextlib.nullcontext():
            ops = runner.run_round(round_dir, round_plan, mode, tracer)
        rounds[mode].append((ops, tracer))
        for op in ops:
            report_op(f"[{workload} round {k} {mode}]", op)
        # Keep only the latest round's files; a full tape round is ~12 MB.
        if previous is not None:
            shutil.rmtree(previous)
        previous = round_dir
        now = time.perf_counter()
        if k > len(first) and (quick or deadline - now < (now - round_start) / 2):
            return rounds


def e2e_metrics(rounds, setup_s):
    """Command times are the fastest over the forked rounds and `wall_s` is
    their sum; peak RSS is the largest over the child-process round.

    The commands are deterministic, so other work on the host can only add
    time to them, and on a shared host it does so in spells of seconds to
    minutes. The fastest round is the figure such spells disturb least; the
    median over a run's rounds moved with them.
    """
    values = {name: [] for name in E2E_UNITS}
    for ops, _ in rounds["fork"]:
        for op, (_, metric) in zip(ops, workloads.OPS):
            values[metric].append(op.wall_s)
    metrics = {name: min(v) for name, v in values.items() if v}
    metrics["wall_s"] = sum(metrics[name] for _, name in workloads.OPS)
    metrics["peak_rss_mb"] = statistics.median(max(op.rss_mb for op in ops) for ops, _ in rounds["child"])
    metrics["setup_s"] = setup_s
    return {name: {"value": metrics[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}


def layer_metrics(rounds):
    """Medians over traced rounds; the overhead is traced command time minus
    that of the unwrapped in-process round before them."""
    base = sum(op.wall_s for op in rounds["in-process"][0][0])
    rounds = [
        tracing.layer_metrics(t.spans, sum(op.wall_s for op in ops) - base)
        for ops, t in rounds["traced"]
    ]
    return {
        name: {"value": statistics.median(r[name] for r in rounds), "unit": tracing.metric_unit(name)}
        for name in tracing.METRIC_NAMES
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="every workload at reduced size")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lobdiff", "cli.py")):
        print("error: run from the root of a lobdiff checkout (no src/lobdiff/cli.py)", file=sys.stderr)
        return 2
    runner = Runner(root, args.seed)
    try:
        setup_s = runner.setup_seconds()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work_root = os.path.join(root, "bench", "_work")
    names = sorted(workloads.WORKLOADS) if args.quick else [args.workload]
    attempted = failed = 0
    metrics = {}
    all_tracers = []
    for workload in names:
        work_dir = os.path.join(work_root, workload)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            rounds = run_workload(
                runner, workload, work_dir, STARTED + args.seconds, args.trace, args.quick
            )
        except (RuntimeError, ImportError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        all_tracers += [(workload, t) for _, t in rounds["traced"]]
        for ops, _ in [r for mode in MODES for r in rounds[mode]]:
            attempted += len(ops)
            failed += sum(op.failed for op in ops)
        if args.quick:
            print(f"[{workload}] " + json.dumps(e2e_metrics(rounds, setup_s)), flush=True)
            print(f"[{workload}] " + json.dumps(layer_metrics(rounds)), flush=True)
        elif args.trace:
            metrics = layer_metrics(rounds)
        else:
            metrics = e2e_metrics(rounds, setup_s)
    if all_tracers:
        os.makedirs(work_root, exist_ok=True)
        with open(os.path.join(work_root, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(
                [{"workload": w, "spans": t.spans} for w, t in all_tracers], fh
            )
    if runner.nondeterministic:
        print(f"outputs differ between rounds: {sorted(set(runner.nondeterministic))}", flush=True)
    result = {
        "correct": not runner.nondeterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if args.quick and (failed or not result["correct"]) else 0


if __name__ == "__main__":
    sys.exit(main())
