"""Building blocks of the benchmark: seeded inputs, statistics, child
processes and the serve client.  Nothing here knows a workload."""

import json
import math
import os
import pty
import select
import selectors
import socket
import statistics
import subprocess
import tempfile
import time

# ---------------------------------------------------------------- inputs


class Rng:
    """splitmix64: the same seed gives the same stream on every Python."""

    def __init__(self, seed):
        # Start from the mixed seed, not from a multiple of the increment:
        # then consecutive seeds would give one stream shifted by a draw.
        self.state = seed % 2**64
        self.state = self.next64()

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    def uniform(self):
        """Uniform in (0, 1)."""
        return ((self.next64() >> 11) + 0.5) / 2**53

    def gauss(self):
        u, v = self.uniform(), self.uniform()
        return math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * v)


def random_walk(rng, length):
    out, x = [], 0.0
    for _ in range(length):
        x += rng.gauss()
        out.append(x)
    return out


def unit_variance(column):
    """Shifts to mean 0 and scales to variance 1: the pinned amplitude."""
    mean = statistics.fmean(column)
    sd = statistics.pstdev(column, mean) or 1.0
    return [(x - mean) / sd for x in column]


def box_smooth(column, width, passes=3):
    """Repeated moving average, an O(n) approximation of a Gaussian blur."""
    half = width // 2
    for _ in range(passes):
        prefix = [0.0]
        for x in column:
            prefix.append(prefix[-1] + x)
        n = len(column)
        column = [
            (prefix[min(n, i + half + 1)] - prefix[max(0, i - half)])
            / (min(n, i + half + 1) - max(0, i - half))
            for i in range(n)
        ]
    return column


def smoothed_repeats(rng, segment, repeats, shift, noise):
    """Two columns: `repeats` noisy copies of one Gaussian-smoothed,
    drift-free walk, the second column rotated by `shift` samples.  The
    walk's drift (its 1000-sample moving average) is taken out: at m=2000 a
    raw walk's few large-scale trends decided the share of blocks the
    sketch prefilter skips (0.44-0.79 on seeds 1-8), the drift-free walk
    skips 0.70-0.86 (seeds 11-18).  Removing more (a 300-sample average,
    or smoothed white noise) skipped more, but left a profile of near-exact
    repeats so small that a few missed matches took the accuracy A to 0
    on some seeds."""
    walk = random_walk(rng, segment)
    drift = box_smooth(walk, 1000)
    base = unit_variance(box_smooth([w - d for w, d in zip(walk, drift)], 90))
    columns = []
    for offset in (0, shift):
        pattern = base[offset:] + base[:offset]
        columns.append([x + noise * rng.gauss()
                        for _ in range(repeats) for x in pattern])
    return columns


def write_csv(path, columns):
    """Columns of equal length to a CSV with a header row, fixed format."""
    with open(path, "w") as f:
        f.write(",".join("c%d" % k for k in range(len(columns))) + "\n")
        for row in zip(*columns):
            f.write(",".join("%.6f" % x for x in row) + "\n")


def zipf_mix(rng, count, n_keys, skew):
    """`count` key ranks in [0, n_keys) in a seeded order, rank r taken its
    Zipf share count / (r + 1)^skew / H times, rounded by largest
    remainder.  The seed decides the order, not the mix, so every seed
    asks for the same number of distinct keys."""
    weights = [1.0 / (r + 1) ** skew for r in range(n_keys)]
    shares = [count * w / sum(weights) for w in weights]
    counts = [int(x) for x in shares]
    for r in sorted(range(n_keys), key=lambda r: counts[r] - shares[r])[
            :count - sum(counts)]:
        counts[r] += 1
    draws = [r for r in range(n_keys) for _ in range(counts[r])]
    for i in range(len(draws) - 1, 0, -1):  # Fisher-Yates
        j = min(i, int(rng.uniform() * (i + 1)))
        draws[i], draws[j] = draws[j], draws[i]
    return draws


# ------------------------------------------------------------ statistics


def percentile(values, q):
    """Nearest-rank q-quantile and the number of samples strictly above
    its rank.  Failed operations enter as +inf, so they miss every limit."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def finite(value):
    """JSON has no infinity: a latency every sample of which failed is
    written as 1e300 (the run also reports correct=false)."""
    return value if math.isfinite(value) else 1e300


def cpu_ticks():
    """(busy, stolen) clock ticks of this machine, summed over its CPUs:
    the time its CPUs ran and the time they wanted to run but the
    hypervisor gave to others (the `steal` column of /proc/stat)."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return v[0] + v[1] + v[2] + v[5] + v[6], v[7]


class StealMeter:
    """Share of the CPU time this machine wanted between the meter's
    creation and share() that host steal took."""

    def __init__(self):
        self.busy, self.stolen = cpu_ticks()

    def share(self):
        busy, stolen = cpu_ticks()
        wanted = (busy - self.busy) + (stolen - self.stolen)
        return (stolen - self.stolen) / wanted if wanted > 0 else 0.0


def net(seconds, steal_share):
    """Wall time net of host steal: the part of `seconds` in which the
    machine's CPUs got the time they wanted.  On a shared 4-vCPU host the
    same FP16 profile took a median 0.81 s wall at under 2% steal and 2.03
    s at over 30%, and 0.80 s and 0.93 s net of steal."""
    return seconds * (1.0 - steal_share)


def least_disturbed(samples, disturbance):
    """The half of `samples` (at least one) the host disturbed least, by
    `disturbance`: the host steal share (the correction of net() is
    first-order, so the least-stolen samples are the ones most comparable
    across runs), or the CPU time repeats of the same work took (a host
    whose other tenants crowd the shared cores runs the same work slower
    without stealing the CPU)."""
    ordered = sorted(samples, key=disturbance)
    return ordered[:(len(ordered) + 1) // 2]


# -------------------------------------------------------- child processes


class ProgramRun:
    def __init__(self, returncode, wall_s, setup_s, steal_share, usage,
                 stdout, stderr):
        self.returncode = returncode
        self.steal_share = steal_share  # over the process's lifetime
        self.wall_s = net(wall_s, steal_share)    # spawn until exit
        self.setup_s = net(setup_s, steal_share)  # until the first line
        self.rss_mb = usage.ru_maxrss / 1024.0  # peak resident set
        self.stdout = stdout
        self.stderr = stderr


def run_program(argv, timeout=170.0):
    """Runs argv to completion.  Stdout is a pseudo-terminal, so the
    program's stdio is line-buffered and the arrival of its first line
    marks the end of its set-up."""
    master, slave = pty.openpty()
    with tempfile.TemporaryFile() as err:
        steal = StealMeter()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=slave,
                                stderr=err)
        os.close(slave)
        out = bytearray()
        setup_s = None
        try:
            while True:
                left = start + timeout - time.perf_counter()
                if left <= 0:
                    proc.kill()
                    break
                if not select.select([master], [], [], left)[0]:
                    continue
                try:
                    chunk = os.read(master, 1 << 16)
                except OSError:  # EIO: the child closed the terminal
                    break
                if not chunk:
                    break
                out += chunk
                if setup_s is None and b"\n" in out:
                    setup_s = time.perf_counter() - start
        finally:
            os.close(master)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall_s = time.perf_counter() - start
        steal_share = steal.share()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return ProgramRun(proc.returncode, wall_s,
                      wall_s if setup_s is None else setup_s, steal_share,
                      usage,
                      out.decode(errors="replace").replace("\r\n", "\n"),
                      stderr)


# ------------------------------------------------------------ serve client


class ServeConnection:
    """One client connection speaking the mpsim_serve protocol: a request
    line out, a JSON header line plus `bytes` payload bytes back."""

    def __init__(self, path, timeout=120.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buf = b""

    def _read_exact(self, n):
        while len(self.buf) < n:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        data, self.buf = self.buf[:n], self.buf[n:]
        return data

    def request(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        head, self.buf = self.buf.split(b"\n", 1)
        header = json.loads(head)
        return header, self._read_exact(int(header.get("bytes", 0)))

    def close(self):
        self.sock.close()


class _LoopClient:
    """One connection of closed_loop: its requests, the one in flight and
    the bytes of its reply received so far."""

    def __init__(self, path, requests):
        self.requests = requests
        self.records = []
        self.buf = b""
        self.header = None
        self.start = None
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise

    def send_next(self):
        """Sends the next request; False when every request is answered."""
        if len(self.records) == len(self.requests):
            return False
        self.start = time.perf_counter()
        self.sock.sendall(self.requests[len(self.records)][1].encode() + b"\n")
        return True

    def receive(self, expected):
        """Reads what has arrived; True when it completed the reply."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk
        if self.header is None:
            if b"\n" not in self.buf:
                return False
            head, self.buf = self.buf.split(b"\n", 1)
            self.header = json.loads(head)
        size = int(self.header.get("bytes", 0))
        if len(self.buf) < size:
            return False
        latency = time.perf_counter() - self.start
        payload, self.buf = self.buf[:size], self.buf[size:]
        key = self.requests[len(self.records)][0]
        ok = self.header.get("status") == "ok" and payload == expected[key]
        self.records.append((key, latency if ok else math.inf,
                             bool(self.header.get("cached")), ok, self.start))
        self.header = None
        return True


def closed_loop(path, clients, expected, timeout=120.0):
    """Each client is a list of (key, request line) on its own connection;
    a client sends its next request only after the previous reply.  One
    thread drives every connection, so no client waits for another's turn
    at the interpreter.  A request fails on an error response, a payload
    unlike expected[key], or a refused, broken or silent (`timeout`
    seconds) connection; a failure counts as attempted and has latency
    +inf.  Returns one record per request: (key, latency_s, cached, ok,
    start_s)."""
    loops, selector = [], selectors.DefaultSelector()
    try:
        for requests in clients:
            try:
                loop = _LoopClient(path, requests)
            except OSError:
                loops.append(None)
                continue
            loops.append(loop)
            try:
                if loop.send_next():
                    selector.register(loop.sock, selectors.EVENT_READ, loop)
            except OSError:
                pass
        while selector.get_map():
            ready = selector.select(timeout)
            if not ready:
                break
            for event, _ in ready:
                loop = event.data
                try:
                    if loop.receive(expected) and not loop.send_next():
                        selector.unregister(loop.sock)
                except (OSError, ValueError):
                    selector.unregister(loop.sock)
    finally:
        selector.close()
        for loop in loops:
            if loop is not None:
                loop.sock.close()
    records = []
    for requests, loop in zip(clients, loops):
        done = loop.records if loop is not None else []
        records += done + [(key, math.inf, False, False, math.inf)
                           for key, _ in requests[len(done):]]
    return records


def evicted_keys(records):
    """Keys the daemon computed again after an earlier answer for them had
    arrived: the profile cache stores a profile before answering, so each
    such key was evicted in between."""
    answered = {}
    for key, latency, _, ok, start in records:
        if ok:
            answered[key] = min(answered.get(key, math.inf), start + latency)
    return len({key for key, _, cached, ok, start in records
                if ok and not cached and answered[key] <= start})


def wait_for_ping(path, proc, start, timeout=30.0):
    """Seconds from `start` (the daemon's spawn) until the daemon at `path`
    answers ping; None if it died or never answered."""
    while time.perf_counter() - start < timeout:
        if proc.poll() is not None:
            return None
        try:
            conn = ServeConnection(path, timeout=5.0)
        except OSError:
            time.sleep(0.0005)
            continue
        try:
            header, _ = conn.request("ping")
            if header.get("status") == "ok":
                return time.perf_counter() - start
        finally:
            conn.close()
    return None
