(** Architecture notes for the cross-system pipeline (documentation
    module; no code).

    {1 Delta flow (paper Figure 3)}

    {v
      OLTP engine ("postgres")            OLAP engine ("duckdb")
      ------------------------            ----------------------
      base tables  --triggers-->  delta_T   (the outbox)
                                    |  Oltp.begin_batch   (seq, rows stay put)
                                    v
                                 Bridge.send  (serialize, checksum, latency,
                                    |          injected faults)
                                    v
                     watermark check (_openivm_bridge_watermarks):
                       seq <= wm  -> duplicate, drop + re-ack
                       seq  = wm+1 -> apply under an undo log (all-or-nothing)
                                    |        then advance wm, Oltp.ack
                                    v        (ack empties the outbox)
                              OLAP delta_T tables --+--> replicas (joins/minmax)
                                                    |
                                         Runner.refresh (compiled SQL script)
                                                    |
                                                    v
                                            materialized view V
    v}

    {1 Consistency model}

    A [Pipeline.query] observes a prefix-consistent snapshot: all deltas
    captured before the call are shipped ([sync]) and folded ([refresh])
    before the SELECT runs, so the answer equals recomputing the view
    query over the OLTP state at call time. Between queries the view may
    lag (lazy refresh) — the recency/throughput trade-off of paper §1.

    {1 Failure model}

    The link may drop, duplicate, reorder or corrupt batches, and the
    OLAP side may crash mid-apply ([Fault] injects all five). Delivery is
    exactly-once regardless: batches carry a per-source sequence number
    and checksum; the outbox keeps rows until acknowledged, so resending
    is always possible; the per-source watermark makes re-applying always
    safe. A mid-apply crash rolls the batch back through the tables' undo
    log, leaving the pipeline [crashed] until [Pipeline.recover]
    climbs the ladder: replay unacknowledged outbox batches over a
    fault-suppressed link, verify the view against a full recompute, and
    fall back to a full resync from the base tables if verification
    fails. [recover] reports whether the system converged. See
    [DESIGN.md] section 7 for the protocol in full.

    {1 What "cross-system" costs}

    The bridge charges serialization plus a configurable batch latency and
    per-row cost; the OLTP engine charges a per-statement round trip.
    These are the only knobs separating E3's four deployments, which makes
    the comparison transparent in the paper's sense: everything else is
    the same engine code. *)
