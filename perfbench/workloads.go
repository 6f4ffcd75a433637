package main

// workloads are the benchmark's named workloads.
var workloads = map[string]workload{
	"build-row": {clients: 1, setup: setupBuild(false)},
	"build-col": {clients: 1, setup: setupBuild(true)},
	"serve":     {clients: 1, setup: setupServe},
	"score":     {clients: 1, setup: setupScore},
}

// endToEndNames are the metrics an untraced run reports on its last
// line; every one is declared in BENCHMARK.json's end_to_end list.
// Besides set-up time and disk use they are CPU times: on a shared VM
// the hypervisor takes a varying share of the machine (steal), which
// wall-clock figures include and the process's CPU time does not. The
// wall-clock ones (ops_per_s, op_p50_ms, op_tail_ms, the per-class
// latencies), error_ratio and rss_peak_mb are printed on the lines
// before it.
var endToEndNames = []string{"setup_s", "op_cpu_ms", "cpu_ms_per_op", "disk_bytes_per_user_byte"}

// perLayerNames are the metrics a traced run reports; every one is
// declared in BENCHMARK.json's per_layer list.
var perLayerNames = []string{
	"synth.gen_ns_per_row", "storage.load_ns_per_row",
	"storage.row_scan_ns_per_row", "storage.bytes_read_per_row", "storage.block_scan_ns_per_row",
	"storage.insert_us", "storage.rowlog_bytes_per_row", "storage.segment_bytes_per_row",
	"core.nlq_update_ns_per_row", "core.nlq_update_block_ns_per_row", "core.merge_us", "core.pack_us", "core.model_us",
	"exec.nlq_scan_ms", "exec.plan_ms", "exec.scan_ms", "exec.merge_ms", "exec.finalize_ms", "exec.skew",
	"expr.eval_ns_per_row", "expr.vector_ns_per_row", "udf.calls_per_row", "columnar.block_ratio",
	"sqlparser.parse_us", "db.prepare_us", "db.plan_cache_hit_ratio",
	"summary.hit_ratio", "summary.warm_us", "wire.overhead_us", "wire.bytes_per_op",
	"server.busy_rejections", "trace.overhead_ratio",
}
