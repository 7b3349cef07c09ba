package main

// layerMetric is one per-layer metric of the traced run: its unit, which
// direction is better, and the end-to-end metric (and workload) it should
// move. The table is the benchmark's record of why each layer is measured;
// main_test.go checks it against BENCHMARK.json.
type layerMetric struct {
	name, unit, better, moves string
}

var layerMetrics = []layerMetric{
	{"models.build_ms", "ms", "lower", "setup_s on train-bert"},
	{"engine.host_ms", "ms", "lower", "train_host_s on train-bert"},
	{"engine.host_ns_per_kernel", "ns", "lower", "train_host_s on train-bert"},
	{"engine.unattributed_share", "ratio", "lower", "train_host_s on train-bert (what the policy, um and sim rows leave unexplained)"},
	{"policy.self_ms", "ms", "lower", "train_host_s on train-bert"},
	{"policy.share", "ratio", "lower", "train_host_s on train-bert"},
	{"policy.next_calls", "count", "lower", "train_host_s on train-bert"},
	{"policy.next_ns", "ns", "lower", "train_host_s on train-bert"},
	{"policy.onfault_calls", "count", "lower", "train_host_s on train-bert"},
	{"policy.emits", "count", "lower", "train_host_s on train-bert"},
	{"core.prefetch_issued", "count", "lower", "sim_iter_ms, sim_faults_per_iter and train_host_s on train-bert"},
	{"core.prefetch_useful", "count", "higher", "sim_iter_ms/sim_faults_per_iter on train-bert"},
	{"core.prefetch_accuracy", "ratio", "higher", "sim_iter_ms and train_host_s on train-bert"},
	{"core.chain_restarts", "count", "lower", "train_host_s on train-bert"},
	{"core.preevictions", "count", "lower", "sim_iter_ms on train-bert"},
	{"core.invalidations", "count", "higher", "sim_iter_ms on train-bert"},
	{"um.batches", "count", "lower", "sim_iter_ms on train-bert"},
	{"um.blocks_migrated", "count", "lower", "sim_iter_ms on train-bert"},
	{"um.blocks_evicted", "count", "lower", "sim_iter_ms on train-bert"},
	{"um.transfer_stall_ms", "ms", "lower", "sim_iter_ms on train-bert (simulated time)"},
	{"um.evict_stall_ms", "ms", "lower", "sim_iter_ms on train-bert (simulated time)"},
	{"um.handle_groups_ns", "ns", "lower", "train_host_s on train-bert (UM runs)"},
	{"sim.reserve_ns", "ns", "lower", "train_host_s on train-bert (UM runs)"},
	{"obs.record_ns", "ns", "lower", "train_host_s when tracing is used"},
	{"sim.link_busy_share", "ratio", "lower", "sim_iter_ms on train-bert"},
	{"sim.h2d_gb", "GB", "lower", "sim_iter_ms on train-bert"},
	{"sim.d2h_gb", "GB", "lower", "sim_iter_ms on train-bert"},
	{"correlation.table_mb", "MiB", "lower", "peak_rss_mb and train_host_s on train-bert"},
	{"runtime.alloc_mb_per_train", "MiB", "lower", "peak_rss_mb and train_host_s on train-bert"},
	{"runtime.gc_share", "ratio", "lower", "train_host_s on train-bert"},
	{"obs.events", "count", "lower", "train_host_s when tracing is used"},
	{"obs.dropped", "count", "lower", "train_host_s when tracing is used"},
	{"obs.overhead_share", "ratio", "lower", "train_host_s when tracing is used"},
	{"http.submit_overhead_ms", "ms", "lower", "submit_ms_p50 on serve-oversub"},
	{"http.polls_per_run", "count", "lower", "submit_ms_p50 and run_ms_p50 on serve-oversub"},
	{"supervisor.submit_us_p50", "us", "lower", "submit_ms_* on serve-oversub"},
	{"supervisor.queue_wait_ms_p50", "ms", "lower", "run_ms_* on serve-oversub"},
	{"supervisor.exec_ms_p50", "ms", "lower", "run_ms_* on serve-oversub"},
	{"supervisor.notify_lag_ms_p50", "ms", "lower", "run_ms_* on serve-oversub"},
	{"admission.dedup_hits", "count", "higher", "submit_ms_* and success_rate on serve-oversub"},
	{"admission.sheds", "count", "lower", "success_rate on serve-oversub"},
	{"admission.keytable_ns", "ns", "lower", "submit_ms_* on serve-oversub"},
	{"admission.shedder_ns", "ns", "lower", "submit_ms_* on serve-oversub"},
	{"journal.bytes_per_run", "B", "lower", "submit_ms_* and run_ms_p50 on serve-oversub"},
	{"journal.append_sync_us", "us", "lower", "submit_ms_* and run_ms_p50 on serve-oversub"},
	{"journal.append_nosync_us", "us", "lower", "submit_ms_* and run_ms_p50 on serve-oversub"},
	{"journal.fsync_share", "ratio", "lower", "submit_ms_* and run_ms_p50 on serve-oversub"},
	{"store.put_ms", "ms", "lower", "run_ms_* and runs_per_s on serve-oversub"},
	{"store.get_ms", "ms", "lower", "run_ms_* and runs_per_s on serve-oversub"},
	{"store.bytes_per_run", "B", "lower", "run_ms_* and runs_per_s on serve-oversub"},
	{"store.dedup_ratio", "ratio", "higher", "run_ms_* and runs_per_s on serve-oversub"},
	{"store.share", "ratio", "lower", "run_ms_* and runs_per_s on serve-oversub"},
	{"arbiter.revokes", "count", "lower", "run_ms_p90 on serve-oversub"},
	{"arbiter.suspends", "count", "lower", "run_ms_p90 on serve-oversub"},
	{"arbiter.resumes", "count", "lower", "run_ms_p90 on serve-oversub"},
	{"arbiter.share", "ratio", "lower", "run_ms_p90 on serve-oversub"},
	{"federation.ring_lookup_ns", "ns", "lower", "submit_ms_* on serve-oversub"},
	{"federation.share", "ratio", "lower", "submit_ms_* on serve-oversub"},
	{"engine.share_of_run", "ratio", "lower", "runs_per_s on serve-oversub"},
}

// layerSet collects a traced run's per-layer values. Every metric of the
// table is present in the output; a layer the workload does not reach
// reports 0.
type layerSet map[string]metric

func newLayerSet() layerSet {
	m := make(layerSet, len(layerMetrics))
	for _, l := range layerMetrics {
		m[l.name] = metric{Unit: l.unit}
	}
	return m
}

// set records a value; an unknown name is a bug in the benchmark.
func (m layerSet) set(name string, v float64) {
	old, ok := m[name]
	if !ok {
		panic("benchmark: unknown layer metric " + name)
	}
	m[name] = metric{Value: v, Unit: old.Unit}
}
