"""What each metric means.  BENCHMARK.json is the one list of the
benchmark's metrics (names, units, directions, bounds); run.py reads it.
This file holds what BENCHMARK.json has no field for: the definition of
each end-to-end metric and, for each per-layer metric, the end-to-end
metric it should move and the workload it should move it on.

Failures are not a metric: a share that is 0 on a healthy build has no
relative bound.  `fail_share` is reported as the result's `failed` over
`attempted` (and printed by name); every end-to-end metric is never 0.

Times are wall-clock, net of host steal.  On a shared host the wall time
of the same run swings with the CPU time the hypervisor gives to other
machines (harness.net has the measurement).  Every timed request (a
program run, or a serve pass) therefore records the share of the CPU time
the machine wanted that steal took over its lifetime, and its times are
scaled by the share it got.  A one-shot latency is the median over the
half of the requests with the least steal; a served latency is the median
over the serve passes of each pass's percentile.
"""

END_TO_END = {
    "setup_s":
        "wall time until the program can compute: inputs parsed and config "
        "built (first line of mpsim_cli), or daemon start until the first "
        "ping answer; median of every start in the run",
    "run_s":
        "wall time of one full job from set-up done to exit: one profile "
        "(the killed run plus the resume on elastic-resume), or one pass of "
        "the query mix on serve-mix",
    "peak_rss_mb":
        "peak resident memory of the program (of the daemon on serve-mix; "
        "mean of the killed run and the resume on elastic-resume); median",
    "recall_R":
        "the paper's R: share of profile indices equal to the baseline run "
        "(metrics::recall_rate); the baseline is FP64 of the same input, "
        "exact FP16 on batch-sketch; mean over queries on serve-mix",
    "accuracy_A":
        "the paper's A = 1 - relative L1 error against the same baseline "
        "(metrics::relative_accuracy)",
    "query_p50_ms":
        "median latency of a request that computes a profile, as its client "
        "waits for it: a served query, or one mpsim_cli process from spawn "
        "to exit on the one-shot workloads",
    "query_p95_ms":
        "nearest-rank p95 of every served query (a serve-mix pass has 600 "
        "queries, so 30 lie beyond it); of the computing requests on the "
        "one-shot workloads, which print their sample count",
    "hit_p50_ms":
        "median latency of a request answered without computing: a query "
        "the response header marks cached on serve-mix; on the one-shot "
        "workloads a repeat of the request answered from the finished "
        "run's journal (mpsim_cli --resume)",
    "miss_p50_ms":
        "median latency of a query the daemon computed (\"cached\": false) "
        "on serve-mix; on the one-shot workloads every computing request is "
        "a miss, so this is query_p50_ms",
    "queries_per_s":
        "requests completed per second: of closed-loop wall time on "
        "serve-mix; of summed request wall time, computing and journal "
        "requests alike, on the one-shot workloads",
}

# Per-layer metric -> the end-to-end metric and workload it should move.
SHOULD_MOVE = {
    "tsdata.read_csv_s": "setup_s on all batch workloads",
    "staging.convert_s": "run_s on batch-exact; miss_p50_ms on serve-mix",
    "staging.hits": "run_s on batch-exact; miss_p50_ms on serve-mix",
    "staging.misses": "run_s on batch-exact; miss_p50_ms on serve-mix",
    "staging.bytes_converted":
        "run_s on batch-exact; miss_p50_ms on serve-mix",
    "precalc.stats_s": "run_s on batch-sketch and elastic-resume",
    "precalc.seed_s":
        "run_s on batch-sketch (long window) and elastic-resume (16 tiles)",
    "kernels.row_s": "run_s on batch-exact",
    "kernels.merge_s": "run_s on batch-exact",
    "kernels.rows": "run_s on batch-exact",
    "kernels.cells": "run_s on batch-exact",
    "kernels.cells_per_s": "run_s on batch-exact",
    "kernels.ops_computed": "run_s on batch-exact",
    "kernels.bytes_computed": "run_s on batch-exact",
    "thread_pool.parallel_for.dispatches": "run_s on batch-exact",
    "thread_pool.parallel_for.inline_runs": "run_s on batch-exact",
    "thread_pool.parallel_for.chunks": "run_s on batch-exact",
    "sketch.build_s": "run_s on batch-sketch",
    "sketch.score_s": "run_s on batch-sketch",
    "sketch.skip_share": "run_s, recall_R and accuracy_A on batch-sketch",
    "sketch.miss_rate": "recall_R and accuracy_A on batch-sketch",
    "prefilter.blocks_total": "run_s on batch-sketch",
    "prefilter.blocks_skipped": "run_s on batch-sketch",
    "prefilter.blocks_verified": "run_s on batch-sketch",
    "tile_merge.s": "run_s on elastic-resume",
    "resilient.tile_p50_s": "run_s on batch-exact and elastic-resume",
    "resilient.tile_max_s": "run_s on batch-exact and elastic-resume",
    "resilient.imbalance": "run_s on batch-exact and elastic-resume",
    "resilient.attempts":
        "run_s on batch-exact and elastic-resume; fail_share",
    "resilient.tiles_completed":
        "run_s on batch-exact and elastic-resume; fail_share",
    "resilient.retries": "run_s; fail_share",
    "resilient.useful_share": "run_s on batch-exact and elastic-resume",
    "checkpoint.write_s": "run_s on elastic-resume",
    "checkpoint.read_s": "run_s on elastic-resume; hit_p50_ms on batch "
                         "workloads",
    "checkpoint.restore_s": "run_s on elastic-resume; hit_p50_ms on batch "
                            "workloads",
    "checkpoint.writes": "run_s on elastic-resume",
    "checkpoint.bytes": "run_s on elastic-resume",
    "resilient.slice_commits": "run_s on elastic-resume",
    "resilient.tiles_resumed": "run_s on elastic-resume",
    "resilient.slices_partial": "run_s on elastic-resume",
    "resilient.slices_discarded": "run_s on elastic-resume",
    "checkpoint.reuse_share": "run_s on elastic-resume",
    "coordinator.tiles_dispatched": "run_s on elastic-resume",
    "coordinator.steals": "run_s on elastic-resume",
    "coordinator.duplicates": "run_s on elastic-resume",
    "node.commits": "run_s on elastic-resume",
    "node.commit_conflicts": "run_s on elastic-resume",
    "cluster.steal_share": "run_s on elastic-resume",
    "cluster.useful_share": "run_s on elastic-resume",
    "serve.parse_s": "hit_p50_ms and query_p50_ms on serve-mix",
    "serve.cache_key_s": "hit_p50_ms and query_p50_ms on serve-mix",
    "serve.render_s": "hit_p50_ms and query_p50_ms on serve-mix",
    "serve.job_s": "query_p50_ms and queries_per_s on serve-mix",
    "serve.wait_ms":
        "query_p50_ms and queries_per_s on serve-mix (derived: client "
        "latency minus job time)",
    "serve.profile_cache.hit_share":
        "hit_p50_ms, query_p50_ms and queries_per_s on serve-mix",
    "serve.input_cache.hit_share": "query_p50_ms on serve-mix",
    "serve.series_cache.hit_share": "query_p50_ms on serve-mix",
    "serve.admission.rejected": "fail_share on serve-mix",
    "serve.responses.error": "fail_share on serve-mix",
    "gpusim.modeled_a100_s":
        "none: the paper's roofline axis, never a measurement",
    "gpusim.measured_over_modeled":
        "none: untraced wall over the modeled A100 seconds of the same work",
    "kernel.precalculation.launches": "none (model)",
    "kernel.dist_calc.launches": "none (model)",
    "kernel.sort_incl_scan.launches": "none (model)",
    "kernel.update_mat_prof.launches": "none (model)",
    "kernel.qt_replay.launches": "none (model)",
    "trace.coverage": "none: summed layer self time over traced wall",
    "trace.overhead_share":
        "none: traced wall over the untraced wall of the same work",
}
