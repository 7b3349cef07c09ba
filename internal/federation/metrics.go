package federation

import (
	"io"
	"strconv"

	"deepum/internal/metrics"
	"deepum/internal/supervisor"
)

// WriteMetrics renders the federation's metric families, then each live
// shard's supervisor families labelled shard="<ordinal>", in the
// Prometheus text format. Every family reads one count where it is kept:
// the ring and handoff counters here, the shard rows and the shard-labelled
// families in that shard's one supervisor snapshot. Summed by name,
// deepum_admission_dedup_hits_total and deepum_admission_shed_total read
// what Stats totals.
func (f *Federation) WriteMetrics(w io.Writer) error {
	f.mu.Lock()
	shards := make([]shard, len(f.shards))
	for i, sh := range f.shards {
		shards[i] = *sh
	}
	handoffs, rebalances, rejections := f.handoffs, f.rebalances, f.handoffRejections
	f.mu.Unlock()

	var shardFams []metrics.Family
	var up, adopted, submissions, queued, running []metrics.Series
	live := 0
	for _, sh := range shards {
		ord := strconv.Itoa(sh.ordinal)
		var st supervisor.Stats
		alive := 0.0
		if sh.alive {
			var sf []metrics.Family
			st, sf = sh.sup.MetricFamilies()
			shardFams = append(shardFams, metrics.WithLabels(sf, "shard", ord)...)
			alive = 1
			live++
		} else {
			st = sh.sup.Stats() // a killed shard's counters stay readable
		}
		row := func(v float64) metrics.Series { return metrics.Series{Labels: []string{"shard", ord}, Value: v} }
		up = append(up, row(alive))
		adopted = append(adopted, row(float64(st.Adopted)))
		submissions = append(submissions, row(float64(st.Submissions.Accepted)))
		queued = append(queued, row(float64(st.Queued)))
		running = append(running, row(float64(st.Running)))
	}
	one := func(v int) []metrics.Series { return []metrics.Series{{Value: float64(v)}} }
	fams := []metrics.Family{
		{Name: "deepum_shard_up", Help: "Shard liveness (1 = alive, 0 = killed).", Type: "gauge", Series: up},
		{Name: "deepum_shard_adopted_runs_total", Type: "counter", Series: adopted,
			Help: "Unfinished runs adopted by this shard from dead peers' journals."},
		{Name: "deepum_shard_submissions_total", Type: "counter", Series: submissions,
			Help: "Runs admitted through the federation front-end, by owning shard."},
		{Name: "deepum_shard_queued_runs", Help: "Admitted runs waiting for a worker, by shard.", Type: "gauge", Series: queued},
		{Name: "deepum_shard_running_runs", Help: "Runs executing right now, by shard.", Type: "gauge", Series: running},
		{Name: "deepum_federation_handoffs_total", Type: "counter", Series: one(handoffs),
			Help: "Completed journal handoffs from dead shards to live successors."},
		{Name: "deepum_federation_ring_rebalances_total", Type: "counter", Series: one(rebalances),
			Help: "Consistent-hash ring rebuilds after a shard handoff."},
		{Name: "deepum_federation_handoff_rejections_total", Type: "counter", Series: one(rejections),
			Help: "Requests rejected because the owning shard is dead awaiting handoff."},
		{Name: "deepum_federation_shards_live", Help: "Live shards on the ring.", Type: "gauge", Series: one(live)},
		{Name: "deepum_admission_dedup_hits_total", Type: "counter",
			Series: []metrics.Series{{Value: float64(f.fedDedup.Load())}},
			Help:   "Retried submissions resolved to an existing run by idempotency key."},
	}
	return metrics.Write(w, append(fams, shardFams...))
}
