"""Helpers of the repository benchmark: percentiles, telemetry parsing, and
the seeded tufp_serve wire session of the serve-wire workload.

Everything here is pure (no processes, no clocks) so test_perfbench.py can
pin it down exactly.
"""
import json
import math
import random
import statistics


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values):
    """Middle value (mean of the two middle ones for an even count)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def parse_telemetry(text):
    """Splits a JSONL telemetry stream into its events.

    Returns (events, junk): every line that parses as a JSON object with an
    `event` field, in order, and the count of non-empty lines that did not
    (the daemon's stderr mixes human-readable notes into the wall channel).
    """
    events, junk = [], 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            junk += 1
            continue
        if isinstance(obj, dict) and "event" in obj:
            events.append(obj)
        else:
            junk += 1
    return events, junk


def summary_event(events):
    """The det `summary` event of a finished session, or None."""
    found = [e for e in events if e.get("event") == "summary"]
    return found[-1] if found else None


def assign_epochs(batches, queued):
    """Maps queued requests, in arrival order, to the epoch that decided them.

    The daemon's queue is FIFO and every epoch clears the `batch` oldest
    queued requests, so request i belongs to the first epoch whose running
    batch total exceeds i. Returns one epoch index per request; raises if
    the epochs do not account for exactly `queued` requests.
    """
    if sum(batches) != queued:
        raise ValueError(
            "epochs decided %d queued requests, session queued %d"
            % (sum(batches), queued))
    owner = []
    for epoch, size in enumerate(batches):
        owner.extend([epoch] * size)
    return owner


# --------------------------------------------------------------- session

# Hostile line kinds. Every one lands in the daemon's `invalid` counter
# exactly once: either shed at the wire (parse or framing error, never
# queued) or queued and shed by the engine's bid validation.
HOSTILE_KINDS = (
    "nan_demand",        # queued, invalid at validation
    "negative_demand",   # queued, invalid at validation
    "huge_demand",       # queued, invalid at validation (demand > 1)
    "zero_duration",     # queued, invalid at validation
    "bad_vertex",        # queued, invalid at validation
    "overflow_value",    # 1e999 overflows the parser: shed as malformed
    "not_a_number",      # non-numeric fields: shed as malformed
)
QUEUED_HOSTILE = frozenset(HOSTILE_KINDS[:5])


class Session:
    """One seeded tufp_serve wire session, ready to send.

    chunks: byte strings written one sendall() each; the last one is a
        truncated `req` frame with no newline (a framing error the daemon
        sheds when the connection closes).
    chunk_of_queued: for every line that reaches the daemon's queue, in
        order, the index of the chunk that carries it.
    lines: all protocol lines sent (the truncated frame included).
    requests: lines the daemon counts as requests (every `req` line plus
        every shed line).
    invalid: lines planned to land in `invalid` (hostile + truncated).
    """

    def __init__(self):
        self.chunks = []
        self.chunk_of_queued = []
        self.lines = 0
        self.requests = 0
        self.invalid = 0


def _fmt(x):
    # repr() is the shortest round-trip form: a tiny positive duration
    # stays positive on the wire (a fixed "%.6f" would print 0.000000).
    return repr(float(x))


# The serve-wire session's shape. VERTICES matches the daemon's 16x16 grid
# (run.SERVE_ARGS); RATE and DURATION_MEAN put the auction in the binding
# regime (about half the requests admitted).
VERTICES = 256
RATE = 8000.0           # requests per virtual second
DURATION_MEAN = 0.1     # virtual seconds
HOSTILE_SHARE = 0.01
CONTROL_SHARE = 0.005   # tick / drain / flush lines
CHUNK_LINES = 256       # lines per sendall()


def make_session(seed, n_lines):
    """Builds the serve-wire session: n_lines protocol lines.

    Requests arrive as a Poisson process at RATE per virtual second with
    exponential lease durations; terminals are uniform distinct vertices,
    demand U[0.2, 1], value U[1, 10]. About HOSTILE_SHARE of the lines are
    hostile and CONTROL_SHARE are tick/drain/flush commands.
    """
    rng = random.Random(seed)
    s = Session()
    t = 0.0
    lines = []
    queued_lines = []  # line index of every queued line

    def req_line(src, dst, demand, value, duration):
        return "req %d %d %s %s %s %s" % (
            src, dst, _fmt(demand), _fmt(value), _fmt(t), _fmt(duration))

    def draw_duration():
        while True:
            d = rng.expovariate(1.0 / DURATION_MEAN)
            if d > 0.0:
                return d

    for _ in range(n_lines - 1):
        u = rng.random()
        src = rng.randrange(VERTICES)
        dst = (src + 1 + rng.randrange(VERTICES - 1)) % VERTICES
        demand = rng.uniform(0.2, 1.0)
        value = rng.uniform(1.0, 10.0)
        if u < HOSTILE_SHARE:
            kind = HOSTILE_KINDS[rng.randrange(len(HOSTILE_KINDS))]
            if kind == "nan_demand":
                line = "req %d %d nan %s %s %s" % (
                    src, dst, _fmt(value), _fmt(t), _fmt(draw_duration()))
            elif kind == "negative_demand":
                line = req_line(src, dst, -demand, value, draw_duration())
            elif kind == "huge_demand":
                line = req_line(src, dst, 1e300, value, draw_duration())
            elif kind == "zero_duration":
                line = "req %d %d %s %s %s 0" % (
                    src, dst, _fmt(demand), _fmt(value), _fmt(t))
            elif kind == "bad_vertex":
                line = req_line(VERTICES + src, dst, demand, value,
                                draw_duration())
            elif kind == "overflow_value":
                line = "req %d %d %s 1e999 %s %s" % (
                    src, dst, _fmt(demand), _fmt(t), _fmt(draw_duration()))
            else:
                line = "req x%d y%d z w" % (src, dst)
            if kind in QUEUED_HOSTILE:
                queued_lines.append(len(lines))
            s.requests += 1
            s.invalid += 1
        elif u < HOSTILE_SHARE + CONTROL_SHARE:
            c = rng.randrange(3)
            if c == 0:
                t += rng.expovariate(RATE)
                line = "tick %s" % _fmt(t)
            elif c == 1:
                t += rng.expovariate(RATE)
                line = "drain %s" % _fmt(t)
            else:
                line = "flush"
        else:
            t += rng.expovariate(RATE)
            line = req_line(src, dst, demand, value, draw_duration())
            queued_lines.append(len(lines))
            s.requests += 1
        lines.append(line)

    s.lines = len(lines) + 1
    for begin in range(0, len(lines), CHUNK_LINES):
        block = lines[begin:begin + CHUNK_LINES]
        s.chunks.append(("\n".join(block) + "\n").encode())
    s.chunk_of_queued = [i // CHUNK_LINES for i in queued_lines]
    # Truncated final frame: the connection closes mid-line.
    s.chunks.append(b"req 1 2 0.5")
    s.requests += 1
    s.invalid += 1
    return s


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
