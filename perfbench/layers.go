package main

import (
	"fmt"
	"strings"
)

// perLayer lists the traced run's per-layer metrics, in order. Each is
// named <module>.<metric>; METRICS.md maps each to the end-to-end metric
// and workload it should move. A metric of a layer the workload does not
// use reads 0.
var perLayer = []struct{ name, unit string }{
	{"gsql.query_us", "us"},
	{"gsql.drain_us", "us"},
	{"gsql.exec_us", "us"},
	{"gsql.plan_cache_hit_pct", "%"},
	{"gsql.storage_rows_per_row", "count"},
	{"gsql.dn_filtered_rows_per_row", "count"},
	{"gsql.wan_rows_per_row", "count"},
	{"gsql.self_us_per_op", "us"},
	{"coordinator.begin_us", "us"},
	{"coordinator.get_local_us", "us"},
	{"coordinator.get_remote_us", "us"},
	{"coordinator.write_local_us", "us"},
	{"coordinator.write_remote_us", "us"},
	{"coordinator.commit_1shard_us", "us"},
	{"coordinator.commit_multi_us", "us"},
	{"coordinator.shards_per_txn", "count"},
	{"coordinator.abort_pct", "%"},
	{"coordinator.cn_aborts_per_op", "count"},
	{"coordinator.prefetch_hit_pct", "%"},
	{"coordinator.wan_wait_us_per_scan", "us"},
	{"coordinator.self_us_per_op", "us"},
	{"netsim.remote_calls_per_txn", "count"},
	{"netsim.remote_gap_us", "us"},
	{"clock.err_us", "us"},
	{"gtm.requests_per_txn", "count"},
	{"wal.fsyncs_per_commit", "count"},
	{"wal.group_size", "count"},
	{"repl.lag_records", "count"},
	{"repl.wire_bytes_per_commit", "B"},
	{"repl.batches_per_commit", "count"},
	{"redo.bytes_per_commit", "B"},
	{"rcp.lag_ms", "ms"},
	{"ror.readonly_us", "us"},
	{"ror.replica_pct", "%"},
	{"ror.fallback_pct", "%"},
	{"ror.get_us", "us"},
	{"ror.scan_us", "us"},
	{"ror.self_us_per_op", "us"},
	{"mvcc.rows_scanned_per_op", "count"},
	{"mvcc.reader_waits_per_op", "count"},
	{"mvcc.versions_per_hot_key", "count"},
	{"mvcc.keys", "count"},
	{"process.alloc_kb_per_op", "KiB"},
	{"process.idle_cpu_pct", "%"},
	{"client.self_us_per_op", "us"},
	{"trace.overhead_ops_pct", "%"},
	{"trace.overhead_p50_pct", "%"},
}

// spanP50 is the median duration, in microseconds, of the spans named
// exactly name, with the count it rests on.
func spanP50(spans []span, name string) (float64, int) {
	var s samples
	for _, sp := range spans {
		if sp.Name == name {
			s.vals = append(s.vals, float64(sp.dur())/1e3)
		}
	}
	if s.n() == 0 {
		return 0, 0
	}
	return s.quantile(0.5), s.n()
}

// versionCounts returns the committed version-chain length of each of the
// workload's hot keys on its primary.
func versionCounts(w workload) []int {
	prim := w.db().Cluster().Primaries()
	var out []int
	for _, k := range w.hotKeys() {
		out = append(out, len(prim[k.shard].Store().Versions(k.key)))
	}
	return out
}

// printLayers computes and prints the per-layer metrics of the traced
// phase t, with the untraced phase u for the tracing overhead.
func printLayers(w workload, u, t *phaseResult, rows []layerRow, idle float64, hot []int, out map[string]metricValue) {
	ops := float64(t.completed())
	d := func(f func(c counters) int64) float64 { return float64(f(t.after) - f(t.before)) }
	commits := d(func(c counters) int64 { return c.commits })
	cnt := t.count
	vals := map[string]float64{}
	counts := map[string]int{} // samples a percentile rests on

	for _, name := range []string{
		"gsql.query", "gsql.drain", "gsql.exec",
		"coordinator.begin", "coordinator.get_local", "coordinator.get_remote",
		"coordinator.write_local", "coordinator.write_remote",
		"coordinator.commit_1shard", "coordinator.commit_multi",
		"ror.readonly", "ror.get", "ror.scan",
	} {
		vals[name+"_us"], counts[name+"_us"] = spanP50(t.spans, name)
	}
	if vals["coordinator.get_remote_us"] > 0 && vals["coordinator.get_local_us"] > 0 {
		vals["netsim.remote_gap_us"] = vals["coordinator.get_remote_us"] - vals["coordinator.get_local_us"]
	}

	vals["gsql.plan_cache_hit_pct"] = 100 * ratio(cnt["gsql.cache_hits"], cnt["gsql.cache_hits"]+cnt["gsql.cache_misses"])
	vals["gsql.storage_rows_per_row"] = ratio(cnt["gsql.storage_rows"], cnt["gsql.rows"])
	vals["gsql.dn_filtered_rows_per_row"] = ratio(cnt["gsql.dn_filtered_rows"], cnt["gsql.rows"])
	vals["gsql.wan_rows_per_row"] = ratio(cnt["gsql.wan_rows"], cnt["gsql.rows"])

	vals["coordinator.shards_per_txn"] = ratio(cnt["coordinator.shards"], cnt["coordinator.txns"])
	vals["coordinator.abort_pct"] = 100 * ratio(float64(t.attempts-t.completed()), float64(t.attempts))
	vals["coordinator.cn_aborts_per_op"] = ratio(d(func(c counters) int64 { return c.aborts }), ops)
	vals["coordinator.prefetch_hit_pct"] = 100 * ratio(cnt["scan.prefetch_hits"], cnt["scan.pages"])
	vals["coordinator.wan_wait_us_per_scan"] = ratio(cnt["scan.wan_wait_us"], cnt["scan.count"])

	remote := 0
	for _, sp := range t.spans {
		if strings.HasSuffix(sp.Name, "_remote") {
			remote++
		}
	}
	vals["netsim.remote_calls_per_txn"] = ratio(float64(remote), ops)
	if s := t.extra["clock.err"]; s != nil && s.n() > 0 {
		vals["clock.err_us"] = 1e3 * s.quantile(0.5)
	}
	vals["gtm.requests_per_txn"] = ratio(d(func(c counters) int64 { return c.gtmRequests }), commits)
	vals["wal.fsyncs_per_commit"] = ratio(d(func(c counters) int64 { return c.fsyncs }), commits)
	vals["wal.group_size"] = ratio(d(func(c counters) int64 { return c.grouped }), d(func(c counters) int64 { return c.groups }))
	vals["repl.lag_records"] = mean(t.lagRecs)
	vals["repl.wire_bytes_per_commit"] = ratio(d(func(c counters) int64 { return c.wireBytes }), commits)
	vals["repl.batches_per_commit"] = ratio(d(func(c counters) int64 { return c.batches }), commits)
	vals["redo.bytes_per_commit"] = ratio(d(func(c counters) int64 { return c.redoBytes }), commits)
	if len(t.rcpLagMs) > 0 {
		vals["rcp.lag_ms"] = median(t.rcpLagMs)
	}
	vals["ror.replica_pct"] = 100 * ratio(cnt["ror.replica"], cnt["ror.queries"])
	vals["ror.fallback_pct"] = 100 * ratio(d(func(c counters) int64 { return c.fallbacks }), cnt["ror.queries"])

	vals["mvcc.rows_scanned_per_op"] = ratio(d(func(c counters) int64 { return c.rowsScanned }), ops)
	vals["mvcc.reader_waits_per_op"] = ratio(d(func(c counters) int64 { return c.readerWaits }), ops)
	total := 0
	for _, n := range hot {
		total += n
	}
	vals["mvcc.versions_per_hot_key"] = ratio(float64(total), float64(len(hot)))
	vals["mvcc.keys"] = float64(t.after.keys)

	vals["process.alloc_kb_per_op"] = ratio(float64(t.allocs)/1024, ops)
	vals["process.idle_cpu_pct"] = idle

	for _, r := range rows {
		if mod, ok := strings.CutSuffix(r.Name, ".*"); ok {
			vals[mod+".self_us_per_op"] = ratio(float64(r.Self)/1e3, ops)
		}
	}

	uOps := float64(u.completed()) / u.elapsed.Seconds()
	tOps := ops / t.elapsed.Seconds()
	vals["trace.overhead_ops_pct"] = 100 * ratio(uOps-tOps, uOps)
	ul, tl := w.latencies(u)[0], w.latencies(t)[0]
	vals["trace.overhead_p50_pct"] = 100 * ratio(tl.value-ul.value, ul.value)

	fmt.Printf("traced run: %.2fs, %d completed (%.1f ops/s), untraced %.1f ops/s; %s p50 traced %.4f ms (n=%d) vs untraced %.4f ms (n=%d)\n",
		t.elapsed.Seconds(), t.completed(), tOps, uOps, ul.name, tl.value, tl.n, ul.value, ul.n)
	fmt.Printf("cross-check: benchmark saw %d aborted attempts; CN counted %.0f aborts\n",
		t.attempts-t.completed(), d(func(c counters) int64 { return c.aborts }))
	for _, m := range perLayer {
		v := finite(vals[m.name])
		if n, ok := counts[m.name]; ok {
			fmt.Printf("%-36s %14.4f %-5s n=%d\n", m.name, v, m.unit, n)
		} else {
			fmt.Printf("%-36s %14.4f %s\n", m.name, v, m.unit)
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
}
