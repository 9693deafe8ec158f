package main

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units; TestCatalogMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd is the host-time catalogue printed with -trace 0. Every metric
// is measured on every workload; README.md says what "job" means on each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_mreq_per_s", "Mreq/s"},
	{"jobs_per_s", "jobs/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"peak_rss_mib", "MiB"},
	{"retained_heap_mib", "MiB"},
}

// perLayer is the traced run's catalogue printed with -trace 1. A layer a
// workload does not exercise reads 0 (README.md lists which are which).
var perLayer = []metricDef{
	{"core.cell_ms.p50", "ms"},
	{"core.cell_ms.p90", "ms"},
	{"runner.busy_frac", "ratio"},
	{"sql.compile_us", "us"},
	{"sim.run_ms", "ms"},
	{"sim.self_ms", "ms"},
	{"sim.self_share", "ratio"},
	{"sim.ns_per_req", "ns"},
	{"sim.mem_requests", "count"},
	{"sim.cycles", "cycles"},
	{"sim.serial_over_sharded", "ratio"},
	{"placer.ms", "ms"},
	{"placer.share", "ratio"},
	{"placer.txns", "count"},
	{"placer.group_txns", "count"},
	{"cache.ms", "ms"},
	{"cache.share", "ratio"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.sector_hit_ratio", "ratio"},
	{"cache.llc_miss_ratio", "ratio"},
	{"cache.fills", "count"},
	{"cache.strided_inserts", "count"},
	{"cache.dirty_evictions", "count"},
	{"mc.ms", "ms"},
	{"mc.share", "ratio"},
	{"mc.row_hit_ratio", "ratio"},
	{"mc.write_drains", "count"},
	{"mc.max_queue", "count"},
	{"mc.read_latency_cycles", "cycles"},
	{"mc.retries", "count"},
	{"dram.acts", "count"},
	{"dram.mode_switches", "count"},
	{"dram.words_useful_ratio", "ratio"},
	{"dram.bus_busy_frac", "ratio"},
	{"fault.ms", "ms"},
	{"fault.bursts", "count"},
	{"fault.corrected", "count"},
	{"fault.due", "count"},
	{"fault.poisoned", "count"},
	{"memo.hit_ratio", "ratio"},
	{"memo.bytes", "bytes"},
	{"samd.results.hit_ratio", "ratio"},
	{"samd.results.dedup", "count"},
	{"serve.submit_us.p50", "us"},
	{"serve.submit_us.p99", "us"},
	{"serve.status_us.p50", "us"},
	{"serve.status_us.p99", "us"},
	{"serve.result_us.p50", "us"},
	{"serve.queue_ms.p50", "ms"},
	{"serve.queue_ms.p99", "ms"},
	{"serve.run_ms.p50", "ms"},
	{"serve.run_ms.p99", "ms"},
	{"serve.polls_per_job", "ratio"},
	{"serve.rejected", "count"},
	{"obs.scrape_ms", "ms"},
	{"go.alloc_mib", "MiB"},
	{"go.gc_count", "count"},
	{"replay.unresolved", "count"},
	{"trace.overhead_frac", "ratio"},
}
