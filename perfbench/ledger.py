"""Per-layer metrics from the spans of a traced run.

Span rows are ``[name, t0, t1, child_seconds, parent_index, key]`` as
:meth:`spans.SpanLog.flush` writes them. A layer's self time is its span's
duration minus its wrapped children. "Unattributed" is the part of the
measured wall time that no wrapped layer covers: for training, step time
outside the trainer's wrapped calls; for serving, client latency outside
the front end's ``parse_request`` and ``do_POST``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Sequence

#: Every per-layer metric with its unit, in report order.
UNITS = {
    "pipeline.build_features_ms": "ms",
    "pipeline.build_graph_index_ms": "ms",
    "pipeline.subgraph_view_ms_per_step": "ms",
    "pipeline.subgraph_nodes_per_step": "count",
    "hflu.forward_ms_per_step": "ms",
    "hflu.calls_per_step": "count",
    "gdu.forward_ms_per_step": "ms",
    "gdu.calls_per_step": "count",
    "aggregate.forward_ms_per_step": "ms",
    "model.forward_self_ms_per_step": "ms",
    "loss.ms_per_step": "ms",
    "autograd.backward_ms_per_step": "ms",
    "optim.ms_per_step": "ms",
    "trainer.self_ms_per_step": "ms",
    "checkpoint.load_ms": "ms",
    "session.init_ms": "ms",
    "frontend.http_ms_per_request": "ms",
    "protocol.decode_ms_per_request": "ms",
    "protocol.encode_ms_per_request": "ms",
    "shard.route_ms_per_request": "ms",
    "service.queue_wait_ms_per_request": "ms",
    "service.collect_ms_per_request": "ms",
    "worker.requests_per_forward": "count",
    "worker.articles_per_forward": "count",
    "worker.busy_share": "ratio",
    "session.encode_ms_per_article": "ms",
    "session.cache_hit_ratio": "ratio",
    "session.forward_ms_per_article": "ms",
    "session.predictions_ms_per_article": "ms",
    "serve.rejected_429": "count",
    "serve.errors": "count",
    "train.unattributed_share": "ratio",
    "serve.unattributed_share": "ratio",
    "train.trace_overhead": "ratio",
    "serve.trace_overhead": "ratio",
}

ENCODE_SPANS = ("session.tokenize", "session.transform_one",
                "session.transform", "session.encode_batch")
FORWARD_SPANS = ("hflu.forward", "gdu.forward", "head.linear")


class LedgerError(RuntimeError):
    """A traced-run guard failed: a layer never fired or a join is incomplete."""


def check_fired(files: Sequence[Dict], expected: Sequence[Sequence[str]]) -> None:
    fired = defaultdict(int)
    for f in files:
        for name, count in f["fired"].items():
            fired[name] += count
    silent = [" or ".join(group) for group in expected
              if not any(fired[name] for name in group)]
    if silent:
        raise LedgerError(f"wrapped layers never fired: {', '.join(silent)}")


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def train_layers(spans: List[list], fits: List[List[float]]) -> Dict[str, float]:
    """Per-step layer times of one traced training process.

    ``fits`` are the step-clock marks of each fit; per-step sums cover the
    spans inside ``[first mark, last mark]`` of a fit, so set-up work and
    the post-fit evaluation are not charged to the steps.
    """
    windows = [(m[0], m[-1]) for m in fits]
    steps = sum(len(m) - 1 for m in fits)
    wall = sum(end - start for start, end in windows)

    def in_steps(row) -> bool:
        return any(start <= row[1] and row[2] <= end for start, end in windows)

    total = defaultdict(float)
    calls = defaultdict(int)
    keys = defaultdict(float)
    covered = 0.0
    fit_self = 0.0
    for row in spans:
        name, t0, t1, child, parent, key = row
        if name == "trainer.fit":
            fit_self += (t1 - t0) - child
            continue
        if name.startswith("pipeline.build_"):
            total[name] += t1 - t0
            calls[name] += 1
            continue
        if not in_steps(row):
            continue
        total[name] += t1 - t0
        calls[name] += 1
        if name == "model.forward":
            total["model.self"] += (t1 - t0) - child
        if key is not None:
            keys[name] += key
        if parent >= 0 and spans[parent][0] == "trainer.fit":
            covered += t1 - t0

    def per_step(*names) -> float:
        return _ms(sum(total[n] for n in names)) / steps

    def per_call(name) -> float:
        return _ms(total[name]) / calls[name] if calls[name] else 0.0

    return {
        "pipeline.build_features_ms": per_call("pipeline.build_features"),
        "pipeline.build_graph_index_ms": per_call("pipeline.build_graph_index"),
        "pipeline.subgraph_view_ms_per_step": per_step("pipeline.subgraph_view"),
        "pipeline.subgraph_nodes_per_step": keys["pipeline.subgraph_view"] / steps,
        "hflu.forward_ms_per_step": per_step("hflu.forward"),
        "hflu.calls_per_step": calls["hflu.forward"] / steps,
        "gdu.forward_ms_per_step": per_step("gdu.forward"),
        "gdu.calls_per_step": calls["gdu.forward"] / steps,
        "aggregate.forward_ms_per_step": per_step("aggregate.forward"),
        "model.forward_self_ms_per_step": per_step("model.self"),
        "loss.ms_per_step": per_step("loss.cross_entropy", "loss.l2"),
        "autograd.backward_ms_per_step": per_step("autograd.backward"),
        "optim.ms_per_step": per_step("optim.clip", "optim.adam_step"),
        "trainer.self_ms_per_step": _ms(fit_self) / steps,
        "train.unattributed_share": (wall - covered) / wall,
    }


def _request_id(article_id: str) -> str:
    return article_id.split(".", 1)[0]


def serve_layers(files: Sequence[Dict], timed: Sequence, window) -> Dict[str, float]:
    """Per-request and per-article layer numbers of one traced server.

    ``timed`` are the client records answered 200 in the timed phase;
    front-end spans join them by ``X-Request-Id`` (or the minted article
    id), worker spans by the article ids of the session call.
    """
    front = defaultdict(dict)       # span name -> request id -> row
    route = defaultdict(float)      # service.predict row id -> seconds
    session_of = {}                 # request id -> (t0, t1)
    encode_pred = defaultdict(float)
    calls = []                      # (pid, row, request ids, child sums)
    load_ms, init_ms = [], []
    for f in files:
        spans = f["spans"]
        if f["role"] == "frontend":
            for row in spans:
                name, key = row[0], row[5]
                if name == "protocol.decode" and key is not None:
                    front[name][_request_id(key)] = row
                elif name == "shard.route" and row[4] >= 0:
                    route[id(spans[row[4]])] += row[2] - row[1]
                elif key is not None and name in (
                    "frontend.parse_request", "frontend.do_post",
                    "service.predict", "protocol.to_dict",
                ):
                    front[name][key] = row
            continue
        children = defaultdict(lambda: defaultdict(float))
        for row in spans:
            name, parent = row[0], row[4]
            if name == "checkpoint.load":
                load_ms.append(_ms(row[2] - row[1]))
            elif name == "session.init":
                init_ms.append(_ms(row[2] - row[1]))
            elif name == "protocol.encode_prediction":
                encode_pred[_request_id(row[5])] += row[2] - row[1]
            elif parent >= 0 and spans[parent][0] == "session.predict":
                sums = children[parent]
                if name in ENCODE_SPANS:
                    sums["encode"] += row[2] - row[1]
                elif name in FORWARD_SPANS:
                    sums["forward"] += row[2] - row[1]
                elif name == "session.predictions":
                    sums["predictions"] += row[2] - row[1]
                elif name == "session.cache_get":
                    sums["lookups"] += 1
                    sums["hits"] += bool(row[5])
        for index, row in enumerate(spans):
            if row[0] != "session.predict":
                continue
            ids = row[5]
            requests = {_request_id(a) for a in ids}
            for rid in requests:
                session_of[rid] = (row[1], row[2])
            calls.append((f["pid"], row, requests, len(ids), children[index]))

    needed = ("frontend.parse_request", "frontend.do_post", "protocol.decode",
              "service.predict", "protocol.to_dict")
    missing = [
        r.request_id for r in timed
        if r.request_id not in session_of
        or any(r.request_id not in front[name] for name in needed)
    ]
    if missing:
        raise LedgerError(
            f"{len(missing)} of {len(timed)} timed requests did not join to "
            f"their layer spans (first: {missing[0]})"
        )

    per_request = defaultdict(list)
    unattributed = latency = 0.0
    for r in timed:
        rid = r.request_id
        lat = r.t_recv - r.t_send
        parse, post = front["frontend.parse_request"][rid], front["frontend.do_post"][rid]
        decode, predict = front["protocol.decode"][rid], front["service.predict"][rid]
        to_dict = front["protocol.to_dict"][rid]
        s0, s1 = session_of[rid]
        routed = route[id(predict)]
        decode_s, to_dict_s = decode[2] - decode[1], to_dict[2] - to_dict[1]
        predict_s = predict[2] - predict[1]
        per_request["frontend"].append(lat - decode_s - predict_s - to_dict_s)
        per_request["decode"].append(decode_s)
        per_request["encode"].append(to_dict_s + encode_pred[rid])
        per_request["route"].append(routed)
        per_request["queue_wait"].append(s0 - predict[1] - routed)
        per_request["collect"].append(predict[2] - s1 - encode_pred[rid])
        unattributed += lat - (parse[2] - parse[1]) - (post[2] - post[1])
        latency += lat

    timed_ids = {r.request_id for r in timed}
    timed_calls = [c for c in calls if c[2] & timed_ids]
    articles = sum(c[3] for c in timed_calls)
    sums = defaultdict(float)
    for c in timed_calls:
        for name, value in c[4].items():
            sums[name] += value
    start, end = window
    busy = defaultdict(float)
    for pid, row, _, _, _ in calls:
        busy[pid] += max(0.0, min(row[2], end) - max(row[1], start))

    def mean_ms(name) -> float:
        return _ms(statistics.fmean(per_request[name]))

    return {
        "checkpoint.load_ms": statistics.fmean(load_ms),
        "session.init_ms": statistics.fmean(init_ms),
        "frontend.http_ms_per_request": mean_ms("frontend"),
        "protocol.decode_ms_per_request": mean_ms("decode"),
        "protocol.encode_ms_per_request": mean_ms("encode"),
        "shard.route_ms_per_request": mean_ms("route"),
        "service.queue_wait_ms_per_request": mean_ms("queue_wait"),
        "service.collect_ms_per_request": mean_ms("collect"),
        "worker.requests_per_forward": statistics.fmean(len(c[2]) for c in timed_calls),
        "worker.articles_per_forward": articles / len(timed_calls),
        "worker.busy_share": statistics.fmean(busy.values()) / (end - start),
        "session.encode_ms_per_article": _ms(sums["encode"]) / articles,
        "session.cache_hit_ratio": sums["hits"] / sums["lookups"],
        "session.forward_ms_per_article": _ms(sums["forward"]) / articles,
        "session.predictions_ms_per_article": _ms(sums["predictions"]) / articles,
        "serve.unattributed_share": unattributed / latency,
    }
