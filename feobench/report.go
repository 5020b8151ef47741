package main

import (
	"fmt"
	"runtime"
	"sort"
)

// e2eMetrics are reported on every workload. primary_p50_ms is the
// median of the op the workload is built around: /recommend on coach,
// /sparql on kbqa, /explain on explain-write. The server's throughput,
// peak RSS and recovery time are reported, ungated, with the per-layer
// metrics instead: on explain-write they follow the number of writes the
// closed loop completes, which follows the host's speed, and their spread
// across runs reached the widest bound a gate may use.
var e2eMetrics = []string{"setup_s", "primary_p50_ms", "sparql_p50_ms", "cpu_ms_per_op"}

// minTailSamples is the sample count below which a p99 is not reported.
const minTailSamples = 1000

// report derives the end-to-end metrics and the workload's input
// properties from the HTTP run.
func (b *bench) report(res *runResult) {
	lat := make([][]float64, numOpKinds)
	okInWindow := 0
	for i := range res.records {
		rec := &res.records[i]
		if !res.inWindow(rec) {
			if rec.err != "" {
				b.problem("warm-up %s op %d: %s", rec.kind, rec.op, rec.err)
			}
			continue
		}
		b.attempted++
		if rec.err != "" {
			b.failed++
			if b.failed <= 5 {
				b.problem("%s op %d: %s", rec.kind, rec.op, rec.err)
			}
			continue
		}
		okInWindow++
		lat[rec.kind] = append(lat[rec.kind], float64(rec.latency.Nanoseconds())/1e6)
	}
	if res.opIndexWraps {
		b.problem("clients outran the generated op sequence; raise maxRate")
	}
	b.set("serve.throughput_rps", float64(okInWindow)/b.window.Seconds(), "ops/s")
	b.set("serve.peak_rss_mb", res.peakRSSMB, "MB")
	b.set("cpu_ms_per_op", 1000*ratio(res.cpuS, float64(okInWindow)), "ms")
	b.note("server CPU in window %.2f s (%.2f of %d CPUs); hypervisor steal %.1f%% of host CPU time",
		res.cpuS, res.cpuS/b.window.Seconds(), runtime.NumCPU(), 100*res.stealShare)
	b.set("sparql_p50_ms", median(lat[opSPARQL]), "ms")
	b.set("primary_p50_ms", median(lat[b.spec.primary]), "ms")
	b.e2e = e2eMetrics
	b.latencies = lat

	b.note("ops in window: attempted %d, failed %d, completed %.1f/s", b.attempted, b.failed, float64(okInWindow)/b.window.Seconds())
	var quarters [4]int
	for i := range res.records {
		if rec := &res.records[i]; res.inWindow(rec) && rec.err == "" {
			quarters[min(3, int(4*rec.start.Sub(res.windowStart)/b.window))]++
		}
	}
	b.note("completed per second by quarter of the window: %.1f %.1f %.1f %.1f",
		float64(quarters[0])/(b.window.Seconds()/4), float64(quarters[1])/(b.window.Seconds()/4),
		float64(quarters[2])/(b.window.Seconds()/4), float64(quarters[3])/(b.window.Seconds()/4))
	for k := opKind(0); k < numOpKinds; k++ {
		xs := lat[k]
		if len(xs) == 0 {
			continue
		}
		tail := fmt.Sprintf("%s_p99_ms n/a (%d samples < %d)", k, len(xs), minTailSamples)
		if len(xs) >= minTailSamples {
			tail = fmt.Sprintf("%s_p99_ms %.3f ms", k, percentile(xs, 99))
		}
		b.note("%-9s %6d samples  %s_p50_ms %.3f ms  %s", k, len(xs), k, median(xs), tail)
	}
	if len(res.acks) > 0 {
		b.note("wal_bytes_per_write %.0f B (%d B of WAL over %d acknowledged explains)",
			float64(res.walAfter-res.walBefore)/float64(len(res.acks)), res.walAfter-res.walBefore, len(res.acks))
	}

	hits := res.after["feo_query_plan_cache_hits"] - res.before["feo_query_plan_cache_hits"]
	misses := res.after["feo_query_plan_cache_misses"] - res.before["feo_query_plan_cache_misses"]
	if hits+misses > 0 {
		b.planHitRatio = hits / (hits + misses)
	}
	b.triplesEnd = res.after["feo_graph_triples"]
	if len(res.acks) > 0 {
		b.walPerWrite = float64(res.walAfter-res.walBefore) / float64(len(res.acks))
	}
	b.inputProperties(res)
}

// inputProperties reports the properties of the inputs that later
// performance claims may depend on.
func (b *bench) inputProperties(res *runResult) {
	s := b.seeded
	b.note("input: %d triples after materialization, %d recipes, %d users, %d ingredients",
		s.triples, len(s.recipes), len(s.users), len(s.ingredients))
	users := map[string]bool{}
	texts := map[string]bool{}
	questions := map[string]bool{}
	recommends, queries, explains := 0, 0, 0
	for i := range res.records {
		rec := &res.records[i]
		if !res.inWindow(rec) {
			continue
		}
		o := &b.ops[rec.op]
		switch o.kind {
		case opRecommend:
			recommends++
			users[o.user] = true
		case opSPARQL:
			queries++
			texts[o.query] = true
		}
	}
	// Questions mint over the whole run, warm-up included.
	for i := range res.records {
		if o := &b.ops[res.records[i].op]; o.kind == opExplain && res.records[i].err == "" {
			explains++
			questions[o.exType.String()+" "+o.primary+" "+o.secondary] = true
		}
	}
	if recommends > 0 {
		b.note("input: %d /recommend calls for %d distinct users; %.1f%% repeat a user",
			recommends, len(users), 100*(1-float64(len(users))/float64(recommends)))
	}
	if queries > 0 {
		classes := map[string][]float64{}
		for i := range res.records {
			if rec := &res.records[i]; res.inWindow(rec) && rec.kind == opSPARQL && rec.err == "" {
				c := b.ops[rec.op].class
				classes[c] = append(classes[c], float64(rec.latency.Nanoseconds())/1e6)
			}
		}
		var names []string
		for c := range classes {
			names = append(names, c)
		}
		sort.Strings(names)
		mix := ""
		for _, c := range names {
			mix += fmt.Sprintf(" %s=%d (p50 %.3f ms)", c, len(classes[c]), median(classes[c]))
		}
		b.note("input: %d queries, %d distinct texts against the 512-entry query-text cache; classes%s",
			queries, len(texts), mix)
	}
	if explains > 0 {
		b.note("input: %d explains, %.1f%% minted a new question", explains, 100*float64(len(questions))/float64(explains))
	}
	b.note("plan cache hit ratio in window %.4f; triples at end %.0f", b.planHitRatio, b.triplesEnd)
}
