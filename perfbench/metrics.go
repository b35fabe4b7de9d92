package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// perLayer is every metric a traced run reports, on every workload; a
// metric a workload does not exercise reads 0. BENCHMARK.json lists the
// same names.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"estelle.parse_ms", "ms"}, {"estelle.check_ms", "ms"}, {"efsm.index_ms", "ms"},
		{"trace.read_ms_per_op", "ms"}, {"trace.events_per_op", "count"},
		{"analysis.search_ms_p50", "ms"},
		{"analysis.te_per_op", "count"}, {"analysis.ge_per_op", "count"},
		{"analysis.re_per_op", "count"}, {"analysis.sa_per_op", "count"},
		{"analysis.nodes_per_op", "count"}, {"analysis.memo_prune_ratio", "ratio"},
		{"analysis.memo_evictions", "count"}, {"analysis.useful_te_ratio", "ratio"},
		{"analysis.te_per_s", "1/s"},
	}
	for _, s := range allSpecs {
		defs = append(defs, metricDef{"analysis.te_per_s." + s, "1/s"})
	}
	defs = append(defs,
		metricDef{"vm.us_per_te", "us"}, metricDef{"vm.alloc_b_per_te", "B"},
		metricDef{"batch.item_ms_p50", "ms"}, metricDef{"batch.worker_busy_ratio", "ratio"},
		metricDef{"serve.service_ms_p50", "ms"}, metricDef{"serve.overhead_ms_p50", "ms"},
		metricDef{"serve.queue_wait_ms_mean", "ms"}, metricDef{"serve.analyze_ms_p50", "ms"},
		metricDef{"serve.batch_ms_p50", "ms"}, metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.shed_429", "count"}, metricDef{"serve.degraded", "count"},
		metricDef{"serve.generator_lag_ms_p90", "ms"}, metricDef{"serve.latency_p99_ms", "ms"},
		metricDef{"serve.boot_ms", "ms"}, metricDef{"serve.upload_ms_p50", "ms"},
		metricDef{"serve.journal_ms_p50", "ms"},
	)
	for _, b := range shareBuckets {
		defs = append(defs, metricDef{b + "_share", "ratio"})
	}
	return append(defs, metricDef{"bench.tracing_overhead_ratio", "ratio"})
}()
