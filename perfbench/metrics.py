"""Metric catalogue and the arithmetic behind every reported number.

perfbench_driver writes raw measurements (latency samples, completion
times, server counters, span files); this module turns them into the
metrics run.py prints. It has no side effects, so test_metrics.py can
check it directly.

END_TO_END and PER_LAYER are the catalogue: BENCHMARK.json at the root of
the repository lists exactly these names, units and bounds
(test_metrics.py checks that they agree).
"""

import bisect
import math
import re
import statistics

# (name, unit, better, bound): what a client of tcfragd sees.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("build_s", "s", "lower", 0.24),
    ("qps", "queries/s", "higher", 0.24),
    ("rpc_p50_ms", "ms", "lower", 0.24),
    ("update_p50_ms", "ms", "lower", 0.24),
    ("rss_mb", "MiB", "lower", 0.1),
    ("db_mb", "MiB", "lower", 0.1),
]

# (name, unit, better): one layer each, from the traced run. The last three
# are client-facing but are listed here, without a bound, and printed on
# every run: a correct run reports an error_rate of exactly 0, and an
# end-to-end metric must never be 0; the two tails spread by 40-60 % of
# their median across ten runs on a shared 4-vCPU machine, more than the
# largest bound an end-to-end metric may have (see README.md).
PER_LAYER = [
    ("local_query.subquery_us_p50", "us", "lower"),
    ("local_query.subquery_us_p99", "us", "lower"),
    ("local_query.subqueries_per_query", "count", "lower"),
    ("local_query.settled_per_subquery", "count", "lower"),
    ("local_query.phase1_ms_per_batch", "ms", "lower"),
    ("local_query.straggler_ratio", "ratio", "lower"),
    ("chains.plan_us_per_query", "us", "lower"),
    ("chains.skeleton_hit_rate", "fraction", "higher"),
    ("chains.interned_plan_hit_rate", "fraction", "higher"),
    ("chains.plan_memo_hit_rate", "fraction", "higher"),
    ("chains.chains_per_query", "count", "lower"),
    ("service.wait_ms_p50", "ms", "lower"),
    ("service.wait_ms_p99", "ms", "lower"),
    ("service.batch_fill_mean", "queries", "higher"),
    ("service.rejected", "count", "lower"),
    ("batch.execute_ms_p50", "ms", "lower"),
    ("batch.dedup_savings", "fraction", "higher"),
    ("executor.assemble_us_per_query", "us", "lower"),
    ("executor.join_tuples_per_query", "count", "lower"),
    ("net.rpc_overhead_ms", "ms", "lower"),
    ("net.replies_error", "count", "lower"),
    ("storage.pool_hit_rate", "fraction", "higher"),
    ("storage.misses_per_query", "count", "lower"),
    ("storage.evictions_per_query", "count", "lower"),
    ("storage.pin_failures", "count", "lower"),
    ("storage.open_ms", "ms", "lower"),
    ("storage.save_ms", "ms", "lower"),
    ("storage.file_bytes", "bytes", "lower"),
    ("maintenance.epoch_ms_p50", "ms", "lower"),
    ("maintenance.epoch_ms_p99", "ms", "lower"),
    ("maintenance.updates_per_epoch", "count", "higher"),
    ("maintenance.reused_border_ratio", "fraction", "higher"),
    ("maintenance.plans_kept_ratio", "fraction", "higher"),
    ("complementary.precompute_ms", "ms", "lower"),
    ("complementary.searches", "count", "lower"),
    ("complementary.tuples", "count", "lower"),
    ("fragment.build_ms", "ms", "lower"),
    ("fragment.avg_ds_nodes", "count", "lower"),
    ("fragment.border_nodes", "count", "lower"),
    ("trace.overhead", "fraction", "lower"),
    ("error_rate", "fraction", "lower"),
    ("rpc_p99_ms", "ms", "lower"),
    ("update_p99_ms", "ms", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name):
    """A metric or workload name: a letter or digit, then at most 63 more
    letters, digits, '_', '.' or '-'."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


# --- Order statistics --------------------------------------------------------

def percentile(samples, p):
    """Nearest-rank percentile of a non-empty sample, p in (0, 100]."""
    ordered = sorted(samples)
    n = len(ordered)
    # The small epsilon keeps p * n / 100 from rounding up past an integer.
    rank = math.ceil(p * n / 100.0 - 1e-9)
    return ordered[min(max(rank, 1), n) - 1]


def tail_percentile(samples, p):
    """The p-th percentile if at least ten samples lie beyond it, else the
    highest percentile that has ten beyond it. Returns (value, p_used); with
    ten samples or fewer no percentile qualifies, and the maximum is
    returned as p100."""
    n = len(samples)
    if n <= 10:
        return max(samples), 100.0
    p_used = min(p, 100.0 * (n - 10) / n)
    return percentile(samples, p_used), p_used


def steady_tail(samples, p):
    """The tail of a phase on a shared machine: the phase's samples (in
    time order) are cut into as many consecutive groups as still hold ten
    samples beyond the p-th percentile each, and the median of the
    groups' tail percentiles is reported, so a stretch of outside
    interference in one group does not set the result. With too few
    samples for two groups this is tail_percentile of the whole phase.
    Returns (value, p_used, groups)."""
    n = len(samples)
    groups = int(n * (100.0 - p) / 100.0 / 10.0 + 1e-9)
    if groups < 2:
        value, p_used = tail_percentile(samples, p)
        return value, p_used, 1
    tails = [tail_percentile(samples[k * n // groups:(k + 1) * n // groups], p)
             for k in range(groups)]
    return (statistics.median(v for v, _ in tails), min(q for _, q in tails),
            groups)


def rate(times, start, end):
    """Completions per second in [start, end) from completion times
    (seconds). A closed loop's answers arrive in batch-sized bursts, so the
    window must span many batches; the count is then off by at most one
    burst."""
    lo = bisect.bisect_left(times, start)
    hi = bisect.bisect_left(times, end)
    return (hi - lo) / (end - start)


def error_rate(ops):
    """(failed + refused + wrong answers) / attempted operations."""
    bad = ops["failed"] + ops["refused"] + ops["wrong"]
    return bad / ops["attempted"] if ops["attempted"] else 0.0


# --- Spans ------------------------------------------------------------------

class Span:
    __slots__ = ("name", "id", "parent", "request", "start", "end", "attrs")

    def __init__(self, name, id, parent, request, start, end, attrs=None):
        self.name = name
        self.id = id
        self.parent = parent
        self.request = request
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


def read_spans(path):
    """Spans from the tab-separated file SpanLog::WriteTsv writes."""
    spans = []
    with open(path) as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            attrs = dict(kv.split("=", 1) for kv in fields[6].split() if "=" in kv)
            spans.append(Span(fields[0], int(fields[1]), int(fields[2]),
                              int(fields[3]), int(fields[4]), int(fields[5]),
                              attrs))
    return spans


def coverage(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _covered(span, others):
    """Time inside `span` that `others` cover, overlaps counted once."""
    clipped = [(max(o.start, span.start), min(o.end, span.end)) for o in others]
    return coverage([iv for iv in clipped if iv[1] > iv[0]])


def self_time(span, children):
    """The span's duration minus the time its children cover (children
    clipped to the span; overlapping children count once)."""
    return span.duration - _covered(span, children)


def children_index(spans):
    index = {}
    for s in spans:
        index.setdefault(s.parent, []).append(s)
    return index


def layer_times(root, children):
    """Time per layer inside `root`'s tree: each span's self time goes to
    its layer, and a group of parallel same-layer leaf children counts by
    the union of their intervals (concurrent subqueries on the pool
    overlap). The values add up to root.duration."""
    out = {}
    def walk(span):
        kids = children.get(span.id, [])
        out[span.layer] = out.get(span.layer, 0) + self_time(span, kids)
        leaves = {}
        for kid in kids:
            if children.get(kid.id):
                walk(kid)
            else:
                leaves.setdefault(kid.layer, []).append(kid)
        for layer, group in leaves.items():
            out[layer] = out.get(layer, 0) + _covered(span, group)
    walk(root)
    return out


def match_requests(calls, batches):
    """Pairs each request span (attrs pair=a:b) with the batch.execute span
    that answered it: the latest batch holding that endpoint pair that ran
    inside the request's interval. Requests without such a batch are
    skipped. Works across processes because both sides stamp
    CLOCK_MONOTONIC."""
    by_pair = {}
    for b in batches:
        for pair in set(b.attrs.get("pairs", "").split(",")):
            by_pair.setdefault(pair, []).append(b)
    for group in by_pair.values():
        group.sort(key=lambda b: b.start)
    starts = {pair: [b.start for b in group] for pair, group in by_pair.items()}
    matched = []
    for call in calls:
        group = by_pair.get(call.attrs.get("pair"))
        if not group:
            continue
        best = None
        i = bisect.bisect_left(starts[call.attrs["pair"]], call.start)
        while i < len(group) and group[i].start <= call.end:
            if group[i].end <= call.end:
                best = group[i]
            i += 1
        if best is not None:
            matched.append((call, best))
    return matched


# --- End-to-end metrics ------------------------------------------------------

def servers(raw):
    """Final counters of every server process the run measured: one per
    round, and on the read-only workloads one per update slice."""
    return raw["servers_final"] + raw["update_servers_final"]


def pooled(rounds):
    """Per-round sample lists joined in round order, i.e. in time order."""
    return [x for samples in rounds for x in samples]


def tails(raw):
    """rpc_p99_ms and update_p99_ms (steady_tail), with the percentile,
    sample count and group count behind each, for printing."""
    values, notes = {}, {}
    for name, rounds in (("rpc_p99_ms", raw["rpc_s"]), ("update_p99_ms", raw["update_s"])):
        samples = pooled(rounds)
        value, p_used, groups = steady_tail(samples, 99)
        values[name] = value * 1e3
        notes[name] = {"percentile": p_used, "samples": len(samples), "groups": groups}
    return values, notes


def end_to_end(raw):
    """Every END_TO_END metric from an untraced run's raw output, the
    client-facing metrics BENCHMARK.json lists without a bound (the two
    tails and error_rate), and notes for printing."""
    build = raw["build"]
    builds = [f + c + s for f, c, s in zip(build["fragment_s"],
                                           build["complementary_s"],
                                           build["save_s"])]
    rpc = pooled(raw["rpc_s"])
    updates = pooled(raw["update_s"])
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "build_s": statistics.median(builds),
        # All rounds' answers over all rounds' bulk time (the windows are
        # equal). Answers arrive in batch-sized bursts, so one round's count
        # is off by up to a burst: 7 % of a round on paged-wide-ds, which
        # pooling the rounds averages down.
        "qps": statistics.mean(rate(done, 0.0, raw["bulk"]["window_s"])
                               for done in raw["bulk"]["done_s"]),
        "rpc_p50_ms": percentile(rpc, 50) * 1e3,
        "update_p50_ms": percentile(updates, 50) * 1e3,
        "rss_mb": max(c["maxrss_kb"] for c in servers(raw)) / 1024.0,
        "db_mb": raw["db_bytes"] / 2.0 ** 20,
    }
    tail_values, notes = tails(raw)
    ungated = dict(tail_values, error_rate=error_rate(raw["ops"]))
    return values, ungated, notes


# --- Per-layer metrics -------------------------------------------------------

def _delta(snapshots, windows):
    """Counter increase summed over the given (first, last) snapshot index
    pairs, as a flat dict keyed section.field."""
    out = {}
    for a, b in windows:
        for section, fields in snapshots[b].items():
            if not isinstance(fields, dict):
                continue
            for key, value in fields.items():
                k = section + "." + key
                out[k] = out.get(k, 0) + value - snapshots[a][section][key]
    return out


def _ratio(num, den, empty):
    return num / den if den else empty


def _in(span, start, end):
    return start <= span.start < end


def per_layer(raw, server_spans, update_spans, inproc_spans, driver_spans):
    """Every PER_LAYER metric from a traced run's raw output and its span
    files (update_spans is empty when the updater ran on the read server).
    Returns (values, notes); the notes carry the sample counts, the stage
    shares, the replay-versus-direct ratio and the wire split, for
    printing."""
    build = raw["build"]
    snaps = raw["snapshots"]
    bulk = raw["bulk"]
    window = bulk["window_s"] * 1e9
    traced = bulk["traced"]
    off = [(k, k + 1) for k, on in enumerate(traced) if not on]
    d = _delta(snaps, off)
    queries = d["batch.num_queries"]

    # Replays come from the traced bulk windows and the interactive phase.
    bulk_on = [(bulk["start_ns"] + k * window, bulk["start_ns"] + (k + 1) * window)
               for k, on in enumerate(traced) if on]
    traced_ranges = bulk_on + [(raw["interactive"]["start_ns"], raw["interactive"]["end_ns"])]

    def in_any(span, ranges):
        return any(_in(span, a, b) for a, b in ranges)

    children = children_index(server_spans)
    roots = [s for s in server_spans if s.name == "batch.replay" and in_any(s, traced_ranges)]
    subs = [c for r in roots for p in children.get(r.id, []) if p.name == "local_query.phase1"
            for c in children.get(p.id, [])]
    plans = [c for r in roots for c in children.get(r.id, []) if c.name == "chains.plan"]
    assembles = [c for r in roots for c in children.get(r.id, []) if c.name == "executor.assemble"]
    sub_us = [s.duration / 1e3 for s in subs] or [0.0]
    stragglers = []
    for r in roots:
        per_frag = {}
        for p in children.get(r.id, []):
            for c in children.get(p.id, []):
                if c.name == "local_query.subquery":
                    per_frag[c.attrs["frag"]] = per_frag.get(c.attrs["frag"], 0) + c.duration
        if per_frag:
            stragglers.append(max(per_frag.values()) / (sum(per_frag.values()) / len(per_frag)))

    executes = {s.id: s for s in server_spans if s.name == "batch.execute"}
    bulk_exec_ms = [s.duration / 1e6 for s in executes.values() if in_any(s, bulk_on)] or [0.0]
    stages = {}
    replay_ns = direct_ns = 0
    for r in roots:
        for layer, t in layer_times(r, children).items():
            stages[layer] = stages.get(layer, 0) + t
        replay_ns += r.duration
        direct_ns += executes[int(r.attrs["of"])].duration

    epochs = [s for s in server_spans + update_spans if s.name == "maintenance.epoch"]
    epoch_ms = [s.duration / 1e6 for s in epochs] or [0.0]
    reused = sum(int(s.attrs["reused_borders"]) for s in epochs)
    dirty = sum(int(s.attrs["dirty_borders"]) for s in epochs)
    kept = sum(int(s.attrs["plans_kept"]) for s in epochs)
    dropped = sum(int(s.attrs["plans_dropped"]) for s in epochs)

    # Admission wait, exactly: in-process calls matched to the batch that
    # answered them.
    calls = [s for s in driver_spans if s.name == "service.call"]
    inproc_batches = [s for s in inproc_spans if s.name == "batch.execute"]
    local = match_requests(calls, inproc_batches)
    waits = [(b.start - c.start) / 1e6 for c, b in local] or [0.0]
    # The same split over the wire (send -> batch start includes the
    # inbound transfer).
    rpcs = [s for s in driver_spans if s.name == "net.rpc"]
    wire_batches = [s for s in executes.values()
                    if _in(s, raw["interactive"]["start_ns"], raw["interactive"]["end_ns"])]
    wire = match_requests(rpcs, wire_batches)
    # Wire RPC p50 minus in-process submit->answer p50, each request first
    # net of the execution of the batch that answered it, so that
    # execution-time variance between the two loops cancels.
    wire_rest = [(c.duration - b.duration) / 1e6 for c, b in wire] or [0.0]
    local_rest = [(c.duration - b.duration) / 1e6 for c, b in local] or [0.0]

    rates = [(on, rate(bulk["done_s"][0], k * bulk["window_s"], (k + 1) * bulk["window_s"]))
             for k, on in enumerate(traced)]
    off_qps = statistics.mean([q for on, q in rates if not on])
    on_qps = statistics.mean([q for on, q in rates if on])

    pool_lookups = d["pool.hits"] + d["pool.misses"]
    sub_p99, sub_p = tail_percentile(sub_us, 99)
    wait_p99, wait_p = tail_percentile(waits, 99)
    epoch_p99, epoch_p = tail_percentile(epoch_ms, 99)
    chain_queries = sum(int(s.attrs["queries"]) for s in plans)
    assemble_queries = sum(int(s.attrs["queries"]) for s in assembles)
    values = {
        "local_query.subquery_us_p50": percentile(sub_us, 50),
        "local_query.subquery_us_p99": sub_p99,
        "local_query.subqueries_per_query": _ratio(d["batch.subqueries_executed"], queries, 0.0),
        "local_query.settled_per_subquery": _ratio(sum(int(s.attrs["settled"]) for s in subs), len(subs), 0.0),
        "local_query.phase1_ms_per_batch": _ratio(d["batch.phase1_seconds"] * 1e3, d["service.batches"], 0.0),
        "local_query.straggler_ratio": statistics.median(stragglers) if stragglers else 1.0,
        "chains.plan_us_per_query": _ratio(d["batch.plan_seconds"] * 1e6, queries, 0.0),
        "chains.skeleton_hit_rate": _ratio(d["batch.plan_cache_hits"], d["batch.plan_cache_hits"] + d["batch.plan_cache_misses"], 1.0),
        "chains.interned_plan_hit_rate": _ratio(d["batch.interned_plan_hits"], d["batch.interned_plan_hits"] + d["batch.interned_plan_misses"], 1.0),
        "chains.plan_memo_hit_rate": _ratio(d["batch.plan_memo_hits"], d["batch.plan_memo_hits"] + d["batch.plan_memo_misses"], 1.0),
        "chains.chains_per_query": _ratio(sum(int(s.attrs["chains"]) for s in plans), chain_queries, 0.0),
        "service.wait_ms_p50": percentile(waits, 50),
        "service.wait_ms_p99": wait_p99,
        "service.batch_fill_mean": _ratio(d["service.completed"], d["service.batches"], 0.0),
        "service.rejected": sum(c["service"]["rejected"] for c in servers(raw)),
        "batch.execute_ms_p50": percentile(bulk_exec_ms, 50),
        "batch.dedup_savings": 1.0 - _ratio(d["batch.subqueries_executed"], d["batch.subqueries_requested"], 1.0),
        "executor.assemble_us_per_query": _ratio(d["batch.assemble_seconds"] * 1e6, queries, 0.0),
        "executor.join_tuples_per_query": _ratio(sum(int(s.attrs["join_tuples"]) for s in assembles), assemble_queries, 0.0),
        "net.rpc_overhead_ms": percentile(wire_rest, 50) - percentile(local_rest, 50),
        "net.replies_error": sum(c["server"]["replies_error"] for c in servers(raw)),
        # A resident open has no pool: every read is served from memory.
        "storage.pool_hit_rate": _ratio(d["pool.hits"], pool_lookups, 1.0),
        "storage.misses_per_query": _ratio(d["pool.misses"], queries, 0.0),
        "storage.evictions_per_query": _ratio(d["pool.evictions"], queries, 0.0),
        "storage.pin_failures": sum(c["pool"]["pin_failures"] for c in servers(raw)),
        "storage.open_ms": statistics.median(raw["open_ms"]),
        "storage.save_ms": statistics.median(build["save_s"]) * 1e3,
        "storage.file_bytes": raw["db_bytes"],
        "maintenance.epoch_ms_p50": percentile(epoch_ms, 50),
        "maintenance.epoch_ms_p99": epoch_p99,
        "maintenance.updates_per_epoch": _ratio(sum(int(s.attrs["updates"]) for s in epochs), len(epochs), 0.0),
        "maintenance.reused_border_ratio": _ratio(reused, reused + dirty, 0.0),
        "maintenance.plans_kept_ratio": _ratio(kept, kept + dropped, 0.0),
        "complementary.precompute_ms": statistics.median(build["complementary_s"]) * 1e3,
        "complementary.searches": build["searches"],
        "complementary.tuples": build["tuples"],
        "fragment.build_ms": statistics.median(build["fragment_s"]) * 1e3,
        "fragment.avg_ds_nodes": raw["config"]["avg_ds_nodes"],
        "fragment.border_nodes": raw["config"]["border_nodes"],
        "trace.overhead": 1.0 - _ratio(on_qps, off_qps, 1.0),
        "error_rate": error_rate(raw["ops"]),
    }
    tail_values, tail_notes = tails(raw)
    values.update(tail_values)
    total_stage = sum(stages.values())
    notes = {
        "samples": {"subqueries": len(subs), "replayed_batches": len(roots),
                    "waits": len(waits), "epochs": len(epochs)},
        "tails": {"local_query.subquery_us_p99": sub_p, "service.wait_ms_p99": wait_p,
                  "maintenance.epoch_ms_p99": epoch_p, **tail_notes},
        "stage_share": {k: v / total_stage for k, v in sorted(stages.items())} if total_stage else {},
        "replay_vs_direct": _ratio(replay_ns, direct_ns, 0.0),
        "qps_untraced": off_qps,
        "qps_traced": on_qps,
        "wire_split_ms": {
            "send_to_batch_start": percentile([(b.start - c.start) / 1e6 for c, b in wire], 50) if wire else 0.0,
            "batch_execute": percentile([b.duration / 1e6 for c, b in wire], 50) if wire else 0.0,
            "batch_end_to_reply": percentile([(c.end - b.end) / 1e6 for c, b in wire], 50) if wire else 0.0,
            "rpc": percentile(pooled(raw["rpc_s"]), 50) * 1e3,
            "inproc_call": percentile(raw["inproc_s"], 50) * 1e3,
            "matched": len(wire),
            "inproc_matched": len(local),
        },
    }
    return values, notes
