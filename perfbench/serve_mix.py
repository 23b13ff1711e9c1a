"""Workload ``serve_mix``: the served line-JSON path (traced profile only).

``runner serve`` runs in a child process on 127.0.0.1: the
effective-bandwidth policy over a two-class mix (``dar1`` and
``video`` = Z^0.975), 4 links at OC-3, and an overload policy whose
bounded decision queue sheds a few percent at rho = 1.1.  Telemetry
is off, as ``serve`` runs it.

One client connection sends admit/release lines open-loop on a fixed
wall-clock schedule; each request carries its workload-clock ``now``.
The whole line sequence is computed during set-up by running the same
requests through an in-process ``AdmissionFrontend``, which fixes
which releases exist and what every response must be.

Why: the work here is the wire (JSON decode/encode, asyncio
readline/drain) plus the general effective-bandwidth and overload
engine path; the count fast path and telemetry are bypassed.

This workload has no untraced run: its end-to-end spread on the
reference host was too wide to gate (see README).  The traced profile
measures its layers, checks every response and records the
nominal-rate latencies of the untraced server.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from harness import (
    ROOT,
    WORK,
    Outcome,
    percentile,
    process_cpu_seconds,
    program_env,
    tail_percentile,
)

NAME = "serve_mix"

CLASS_NAMES = ("dar1", "video")
N_LINKS = 4
POLICY = "effective-bandwidth"
CAPACITY_MBPS = 155.52
DELAY_MS = 20.0
MAX_CLR = 1e-6
RHO = 1.1
MEAN_HOLDING = 90.0
#: Bounded decision queue: depth 4, served at 1/0.7 of the per-link
#: arrival rate (both on the workload clock), which sheds a few
#: percent (about 3.3%) of the Poisson arrivals.
MAX_QUEUE = 4
DECISION_LOAD = 0.7

#: The fixed nominal rate for serve_p50_ms/serve_p99_ms, well below
#: the server's capacity (30-40k lines/s on a 2-core host); 16k lines
#: support p99.9 with 16 samples beyond it.
NOMINAL_RATE = 8000.0
NOMINAL_LINES = 16_000
WARMUP_LINES = 10_000
DRAIN_TIMEOUT_S = 20.0
#: The client sends what is due and reads what has arrived once per
#: tick, so send lateness and response timestamps carry up to one
#: tick of quantization.
TICK_S = 0.0005
#: Requests generated per link: enough for the stream (about 1.8
#: lines per request).
REQUESTS_PER_LINK = 10_000


@dataclass(frozen=True)
class Config:
    """What the server is started with, and the reference built from."""

    classes: list
    capacity: float
    qos: object
    link_ids: list
    arrival_rate: float
    decision_rate: float
    overload: object


def configure() -> Config:
    from repro.atm.qos import QoSRequirement
    from repro.service.cli import build_class
    from repro.service.overload import OverloadPolicy
    from repro.service.tables import DecisionTableCache
    from repro.utils.units import mbps_to_cells_per_frame

    classes = [build_class(name) for name in CLASS_NAMES]
    capacity = mbps_to_cells_per_frame(CAPACITY_MBPS)
    qos = QoSRequirement(max_delay_seconds=DELAY_MS / 1000.0, max_clr=MAX_CLR)
    boundary = DecisionTableCache(persist=False).lookup(
        classes[0].model, capacity, qos, POLICY
    ).admissible
    arrival_rate = RHO * boundary / MEAN_HOLDING
    decision_rate = arrival_rate / DECISION_LOAD
    overload = OverloadPolicy(
        max_queue_depth=MAX_QUEUE, decision_seconds=1.0 / decision_rate
    )
    return Config(
        classes, capacity, qos, [f"link-{i}" for i in range(N_LINKS)],
        arrival_rate, decision_rate, overload,
    )


class Stream:
    """The line sequence and its reference responses.

    Each admit line carries its workload-clock ``now``; releases come
    from a departure heap over the admitted connections, so the
    reference frontend fixes which releases exist.
    """

    def __init__(self, config: Config, seed: int, n_lines: int):
        from repro.service.frontend import AdmissionFrontend
        from repro.service.workload import WorkloadSpec, generate_workload
        from repro.utils.rng import spawn_generators

        frontend = AdmissionFrontend(
            config.classes, config.link_ids, capacity=config.capacity,
            qos=config.qos, policy=POLICY, overload=config.overload,
            publish=False,
        )
        spec = WorkloadSpec(
            n_requests=REQUESTS_PER_LINK, arrival_rate=config.arrival_rate,
            mean_holding_time=MEAN_HOLDING,
        )
        workloads = [
            generate_workload(spec, config.classes, generator)
            for generator in spawn_generators(seed, N_LINKS)
        ]
        arrivals = np.concatenate([w.arrival_times for w in workloads])
        holding = [w.holding_times.tolist() for w in workloads]
        labels = [w.class_indices.tolist() for w in workloads]
        names = [c.name for c in config.classes]
        link_ids = config.link_ids
        departures: list = []
        lines: List[bytes] = []
        #: Per line: None for a release, else (admitted, reason,
        #: admissible, occupancy, fallback).
        self.expected: list = []
        for flat in np.argsort(arrivals, kind="stable").tolist():
            now = float(arrivals[flat])
            while departures and departures[0][0] <= now:
                _, dep_link, conn = heapq.heappop(departures)
                frontend.release(link_ids[dep_link], conn)
                lines.append(
                    f'{{"op":"release","link":"{link_ids[dep_link]}",'
                    f'"conn":"{conn}"}}\n'.encode()
                )
                self.expected.append(None)
            link, j = divmod(flat, REQUESTS_PER_LINK)
            conn = f"c{j}"
            name = names[labels[link][j]]
            decision = frontend.admit(link_ids[link], name, conn, now=now)
            lines.append(
                f'{{"op":"admit","link":"{link_ids[link]}","class":"{name}",'
                f'"conn":"{conn}","now":{now!r}}}\n'.encode()
            )
            self.expected.append(
                (decision.admitted, decision.reason, decision.admissible,
                 decision.occupancy, decision.fallback)
            )
            if decision.admitted:
                heapq.heappush(departures, (now + holding[link][j], link, conn))
            if len(lines) >= n_lines:
                break
        else:
            raise RuntimeError(f"stream exhausted at {len(lines)} lines")
        self.data = b"".join(lines)
        self.offsets = np.zeros(len(lines) + 1, dtype=np.int64)
        np.cumsum([len(line) for line in lines], out=self.offsets[1:])


# -- the server ----------------------------------------------------------------


class Server:
    """``runner serve`` (or the traced launcher) in a child process."""

    def __init__(self, config: Config, *, traced_dump: Optional[Path] = None):
        argv = ["serve", "--links", str(N_LINKS)]
        for name in CLASS_NAMES:
            argv += ["--class", name]
        argv += [
            "--policy", POLICY,
            "--capacity-mbps", repr(CAPACITY_MBPS),
            "--delay-ms", repr(DELAY_MS),
            "--clr", repr(MAX_CLR),
            "--max-queue", str(MAX_QUEUE),
            "--decision-rate", repr(config.decision_rate),
            "--host", "127.0.0.1",
            "--port", "0",
        ]
        if traced_dump is None:
            command = [sys.executable, "-m", "repro.experiments.runner", *argv]
        else:
            launcher = Path(__file__).resolve().parent / "serve_launcher.py"
            command = [sys.executable, str(launcher), str(traced_dump), *argv]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=program_env(),
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
        )
        line = self.process.stdout.readline()
        self.start_s = time.perf_counter() - started
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split("listening on ", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.process.pid

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self.process.stdout.close()


@contextmanager
def separate_cores(server: Server):
    """Pin the server and this client to different cores while measuring.

    Left to the scheduler, the two sometimes share a core for a whole
    run and the server loses a third of its rate to the client's ticks.
    """
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        yield
        return
    os.sched_setaffinity(server.pid, {cores[-1]})
    os.sched_setaffinity(0, {cores[0]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)


# -- the open-loop client ------------------------------------------------------


@dataclass
class Phase:
    start: int
    count: int
    received: bytes = b""
    missing: int = 0
    latency_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    late_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    backlog_max: int = 0
    wall_s: float = 0.0


class Client:
    """One connection; sends a slice of the stream on a schedule."""

    def __init__(self, port: int, stream: Stream):
        self.stream = stream
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.position = 0
        self.phases: List[Phase] = []
        self.broken = False

    def close(self) -> None:
        self.sock.close()

    def run(self, count: int, rate: Optional[float]) -> Phase:
        """Send the next ``count`` lines at ``rate`` lines/s (None: at once).

        Each line is due at ``t0 + k / rate``; its latency runs from
        when it was due to when its response arrived, so a stall
        counts against every line queued behind it.  The client's own
        garbage collector is paused meanwhile: a full collection over
        the stream's objects would stall the sender, not the server.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run(count, rate)
        finally:
            if enabled:
                gc.enable()

    def _run(self, count: int, rate: Optional[float]) -> Phase:
        stream = self.stream
        start = self.position
        self.position += count
        phase = Phase(start=start, count=count)
        self.phases.append(phase)
        if self.broken:
            phase.missing = count
            return phase
        offsets = stream.offsets[start : start + count + 1]
        view = memoryview(stream.data)
        sock = self.sock
        pos = int(offsets[0])
        sent = received = 0
        send_t, send_n, recv_t, recv_n, chunks = [], [], [], [], []
        backlog_max = 0
        t0 = time.perf_counter() + 0.001
        deadline = t0 + (count / rate if rate else 0.0) + DRAIN_TIMEOUT_S
        closed = False
        while received < count and not closed:
            now = time.perf_counter()
            if now > deadline:
                break
            if rate is None:
                due = count
            else:
                due = min(count, max(0, math.floor((now - t0) * rate) + 1))
            target = int(offsets[due])
            if pos < target:
                try:
                    pos += sock.send(view[pos:target])
                except BlockingIOError:
                    pass
                now_sent = int(np.searchsorted(offsets, pos, side="right")) - 1
                if now_sent > sent:
                    sent = now_sent
                    send_t.append(now)
                    send_n.append(sent)
                    backlog_max = max(backlog_max, sent - received)
            while True:
                try:
                    data = sock.recv(1 << 20)
                except BlockingIOError:
                    break
                if not data:
                    closed = True
                    break
                chunks.append(data)
                received += data.count(b"\n")
                recv_t.append(time.perf_counter())
                recv_n.append(received)
            if received < count:
                # Wake once per tick: a client that spins would compete
                # with the server for the host's cores.
                time.sleep(max(0.0, now + TICK_S - time.perf_counter()))
        phase.received = b"".join(chunks)
        phase.missing = count - min(received, count)
        if phase.missing:
            self.broken = True
            return phase
        index = np.arange(count)
        due_t = t0 + (index / rate if rate else 0.0)
        sent_at = np.asarray(send_t)[np.searchsorted(send_n, index, side="right")]
        recv_at = np.asarray(recv_t)[np.searchsorted(recv_n, index, side="right")]
        phase.latency_ms = (recv_at - due_t) * 1e3
        phase.late_ms = np.maximum(sent_at - due_t, 0.0) * 1e3
        phase.backlog_max = backlog_max
        phase.wall_s = float(recv_at[-1] - t0)
        return phase


def verify(stream: Stream, phases: List[Phase]):
    """Compare every served response with the in-process reference."""
    errors = mismatches = 0
    first_bad = None
    shed = fallbacks = admits = 0
    for phase in phases:
        lines = phase.received.split(b"\n")[: phase.count - phase.missing]
        for k, raw in enumerate(lines):
            want = stream.expected[phase.start + k]
            try:
                got = json.loads(raw)
            except ValueError:
                errors += 1
                continue
            if not got.get("ok"):
                errors += 1
                continue
            if want is None:
                continue
            admits += 1
            shed += got.get("reason") == "shed"
            fallbacks += bool(got.get("fallback"))
            have = (got.get("admitted"), got.get("reason"), got.get("admissible"),
                    got.get("occupancy"), got.get("fallback"))
            if have != want:
                mismatches += 1
                if first_bad is None:
                    first_bad = {"line": phase.start + k, "got": have, "want": want}
    return errors, mismatches, first_bad, admits, shed, fallbacks


def _record_failures(out: Outcome, stream: Stream, client: Client,
                     check_name: str = "responses_equal_reference"):
    errors, mismatches, first_bad, admits, shed, fallbacks = verify(
        stream, client.phases
    )
    missing = sum(p.missing for p in client.phases)
    sent = sum(p.count for p in client.phases)
    out.attempted += sent
    out.failed += errors + missing
    out.check(
        check_name,
        mismatches == 0 and errors == 0 and missing == 0,
        {"mismatches": mismatches, "errors": errors, "missing": missing,
         "first_mismatch": first_bad},
    )
    return admits, shed, fallbacks


def run_traced(seed: int) -> Outcome:
    """Per-layer metrics of the wire path, plus the tracing overhead.

    The same line prefix goes to a plain server and to the traced
    launcher.  Each gets a warm-up and a nominal-rate phase; the
    overhead compares the two servers' busy (CPU) time over that phase.
    The plain server's phase also gives serve_p50_ms/serve_p99_ms.
    """
    out = Outcome(NAME)
    n_lines = WARMUP_LINES + NOMINAL_LINES
    config = configure()
    stream = Stream(config, seed, n_lines)
    dump_path = WORK / "trace-serve_mix.jsonl"
    if dump_path.exists():
        dump_path.unlink()
    busy, clients = {}, []
    for traced in (False, True):
        server = Server(config, traced_dump=dump_path if traced else None)
        if not traced:
            out.metric("setup.server_start_s", server.start_s, "s", n=1)
        try:
            client = Client(server.port, stream)
            clients.append(client)
            try:
                with separate_cores(server):
                    client.run(WARMUP_LINES, None)
                    if traced:
                        server.signal(signal.SIGUSR1)
                        time.sleep(0.2)
                    cpu_before = process_cpu_seconds(server.pid)
                    nominal = client.run(NOMINAL_LINES, NOMINAL_RATE)
                    cpu_used = process_cpu_seconds(server.pid) - cpu_before
                    if traced:
                        server.signal(signal.SIGUSR2)
                        for _ in range(100):
                            if dump_path.exists():
                                break
                            time.sleep(0.05)
            finally:
                client.close()
        finally:
            server.stop()
        busy[traced] = cpu_used
        if not traced:
            plain = nominal
            out.metric("service.frontend.server_cpu_util",
                       cpu_used / nominal.wall_s, "ratio", n=nominal.count)
            out.metric("loadgen.late_p99_ms",
                       percentile(np.sort(nominal.late_ms), 99.0), "ms",
                       n=nominal.count)
            out.metric("loadgen.backlog_max", nominal.backlog_max, "count",
                       n=nominal.count)

    for client, label in zip(clients, ("plain", "traced")):
        admits, shed, fallbacks = _record_failures(
            out, stream, client, f"responses_equal_reference_{label}"
        )
    totals = {}
    for line in dump_path.read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "totals":
            totals[record["name"]] = record
    lines = totals["service.frontend.decode"]["count"]
    wrapped = sum(
        totals[name]["self_ns"]
        for name in ("service.frontend.decode", "service.frontend.encode")
    ) + sum(
        totals[name]["total_ns"]
        for name in ("service.frontend.admit", "service.frontend.release")
    )

    def per_call(name, key="self_ns"):
        return totals[name][key] / max(totals[name]["count"], 1)

    out.check("window_lines", lines == NOMINAL_LINES, lines)
    out.metric("service.frontend.decode_ns", per_call("service.frontend.decode"),
               "ns", n=totals["service.frontend.decode"]["count"])
    out.metric("service.frontend.encode_ns", per_call("service.frontend.encode"),
               "ns", n=totals["service.frontend.encode"]["count"])
    out.metric("service.frontend.admit_ns",
               per_call("service.frontend.admit", "total_ns"), "ns",
               n=totals["service.frontend.admit"]["count"])
    out.metric("service.frontend.io_ns",
               (busy[True] * 1e9 - wrapped) / max(lines, 1), "ns", n=lines)
    out.metric("service.overload.shed_ratio", shed / max(admits, 1), "ratio",
               n=admits)
    out.metric("service.overload.fallback_ratio", fallbacks / max(admits, 1),
               "ratio", n=admits)
    out.metric("trace.serve_mix.overhead_ratio", busy[True] / busy[False] - 1.0,
               "ratio", untraced_s=busy[False], traced_s=busy[True],
               n=NOMINAL_LINES)
    latencies = np.sort(plain.latency_ms)
    tail = tail_percentile(len(latencies))
    out.details["serve_latency_ms"] = {
        "rate": NOMINAL_RATE,
        "samples": len(latencies),
        "serve_p50_ms": percentile(latencies, 50.0),
        "serve_p99_ms": percentile(latencies, 99.0),
        "tail_percentile": tail,
        "tail_ms": percentile(latencies, tail) if tail else None,
    }
    return out
