package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/feo"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/healthcoach"
	"repro/internal/reasoner"
	"repro/internal/sparql"
	"repro/internal/store"
)

// The traced run replays the first spec.replayOps ops of the seeded
// sequence in-process, twice and interleaved op by op, each replay on a
// fresh copy of the seeded directory: once through the untraced
// feo.Session API, and once through the layers wired the way feo.Open
// wires them, with a span around every call into a layer's public
// functions. Spans are recorded only here, in the benchmark; the program
// itself is not instrumented.

// span is one timed call. parent is -1 for an op's root span.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	base  time.Time
	op    int
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.base)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].Dur = time.Since(t.base) - t.spans[id].Start }

// child records a span whose duration was accumulated by the caller, such
// as the time spent inside result-writer calls.
func (t *tracer) child(name string, parent int, d time.Duration) {
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: t.spans[parent].Start, Dur: d})
}

// selfTimes returns each span's duration minus its children's.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	return self
}

// timedWriter wraps a ResultWriter and accumulates the time spent inside
// its calls: that time is emit, the rest of a query's execution is plan
// and eval.
type timedWriter struct {
	w       feo.ResultWriter
	elapsed time.Duration
}

func (tw *timedWriter) Begin(vars []string) error {
	t0 := time.Now()
	err := tw.w.Begin(vars)
	tw.elapsed += time.Since(t0)
	return err
}

func (tw *timedWriter) Row(sol sparql.Solution) error {
	t0 := time.Now()
	err := tw.w.Row(sol)
	tw.elapsed += time.Since(t0)
	return err
}

func (tw *timedWriter) End(trunc *sparql.Truncation) error {
	t0 := time.Now()
	err := tw.w.End(trunc)
	tw.elapsed += time.Since(t0)
	return err
}

func (tw *timedWriter) Boolean(v bool) error {
	t0 := time.Now()
	err := tw.w.Boolean(v)
	tw.elapsed += time.Since(t0)
	return err
}

func (tw *timedWriter) Written() int64 { return tw.w.Written() }

// queryDeadline matches feo serve's default -query-timeout.
const queryDeadline = 30 * time.Second

func question(o *op) feo.Question {
	q := feo.Question{Type: o.exType, Primary: feo.IRI(o.primary), User: feo.IRI(o.askedBy)}
	if o.secondary != "" {
		q.Secondary = feo.IRI(o.secondary)
	}
	return q
}

// sessionReplay runs ops through the untraced feo.Session API.
type sessionReplay struct {
	sess   *feo.Session
	buf    bytes.Buffer
	writes int
}

func (sr *sessionReplay) do(o *op) error {
	switch o.kind {
	case opRecommend:
		sr.sess.Snapshot().Recommend(feo.IRI(o.user), 10)
	case opStats:
		_ = sr.sess.Snapshot().Stats() // the text itself is checked in the HTTP run
	case opSPARQL:
		sr.buf.Reset()
		_, err := sr.sess.Snapshot().QueryStream(o.query, newWriter(o.format, &sr.buf),
			feo.StreamOptions{Deadline: time.Now().Add(queryDeadline)})
		return err
	case opExplain:
		sr.writes++
		_, err := sr.sess.Explain(question(o))
		return err
	}
	return nil
}

// parseMemo mirrors the engine's bounded query-text cache (512 entries,
// dropped wholesale on overflow), so that the traced parse costs what the
// untraced one does: a lookup for a repeated text, a parse for a new one.
type parseMemo struct{ m map[string]*sparql.Query }

func (pm *parseMemo) parse(src string) (*sparql.Query, error) {
	if q, ok := pm.m[src]; ok {
		return q, nil
	}
	q, err := sparql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	if len(pm.m) >= 512 {
		clear(pm.m)
	}
	pm.m[src] = q
	return q, nil
}

// layerReplay runs ops through the layers directly, wired as feo.Open
// wires them (durable.Open, reasoner.RestoreClosure, core.NewEngine,
// healthcoach.New), with writes in Session.commitWrite's order
// (Graph.Begin, core.Engine.Explain, durable.Store.Append,
// Txn.CommitDeferred) and the deferred publish on the next pin.
type layerReplay struct {
	st      *durable.Store
	g       *store.Graph
	r       *reasoner.Reasoner
	engine  *core.Engine
	weights healthcoach.Weights
	memo    parseMemo
	buf     bytes.Buffer
	dirty   bool
	samples []metrics.Sample

	tr         *tracer
	roots      []int // root span per op
	bootS      float64
	publishes  int
	rows       int
	emitBytes  int64
	queries    int
	allocBytes [numOpKinds]float64
	opsOfKind  [numOpKinds]int
}

func openLayerReplay(dir string) (*layerReplay, error) {
	t0 := time.Now()
	st, boot, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		return nil, err
	}
	lr := &layerReplay{st: st, bootS: time.Since(t0).Seconds(), tr: &tracer{},
		memo:    parseMemo{m: map[string]*sparql.Query{}},
		samples: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	if boot.Graph == nil {
		st.Close()
		return nil, fmt.Errorf("seeded directory %s holds no snapshot", dir)
	}
	lr.g = boot.Graph
	lr.r = reasoner.New(reasoner.Options{TraceDerivations: true})
	lr.r.RestoreClosure(lr.g, boot.Closure)
	lr.r.StartDerivationJournal()
	lr.weights = healthcoach.DefaultWeights()
	lr.engine = core.NewEngine(lr.g, lr.r)
	lr.engine.SetCoach(healthcoach.New(lr.g, lr.weights))
	lr.g.Publish()
	lr.tr.base = time.Now()
	return lr, nil
}

// do runs op i under a root span; the allocation count is read outside it.
func (lr *layerReplay) do(i int, o *op) error {
	tr := lr.tr
	tr.op = i
	metrics.Read(lr.samples)
	allocStart := lr.samples[0].Value.Uint64()
	root := tr.begin("op."+o.kind.String(), -1)
	lr.roots = append(lr.roots, root)
	var err error
	if o.kind == opExplain {
		err = lr.write(o, root)
	} else {
		sp := tr.begin("feo.pin", root)
		if lr.dirty {
			p := tr.begin("store.publish", sp)
			lr.g.Publish()
			tr.end(p)
			lr.dirty = false
			lr.publishes++
		}
		fg := lr.g.Snapshot().Graph()
		coach := healthcoach.New(fg, lr.weights)
		tr.end(sp)
		err = lr.read(o, fg, coach, root)
	}
	tr.end(root)
	metrics.Read(lr.samples)
	lr.allocBytes[o.kind] += float64(lr.samples[0].Value.Uint64() - allocStart)
	lr.opsOfKind[o.kind]++
	return err
}

// write is Session.commitWrite for one explain, a span per layer call.
func (lr *layerReplay) write(o *op, root int) error {
	tr := lr.tr
	mark := lr.r.JournalLen()
	tx := lr.g.Begin()
	sp := tr.begin("core.explain", root)
	_, opErr := lr.engine.Explain(question(o))
	tr.end(sp)
	sp = tr.begin("durable.append", root)
	cs := tx.Changes()
	var logErr error
	if ops := cs.Ops(); cs.Cleared() || len(ops) > 0 {
		logErr = lr.st.Append(durable.Record{Cleared: cs.Cleared(), Ops: ops, EndVersion: cs.EndVersion(),
			TotalInferred: lr.r.TotalInferred(), Derivations: lr.r.JournalSince(mark)})
	}
	tr.end(sp)
	sp = tr.begin("store.commit", root)
	tx.CommitDeferred()
	lr.dirty = lr.dirty || lr.g.Version() != lr.g.Snapshot().Version()
	tr.end(sp)
	return errors.Join(opErr, logErr)
}

// read runs one read op on a pinned frozen graph under the root span.
func (lr *layerReplay) read(o *op, fg *store.Graph, coach *healthcoach.Coach, root int) error {
	tr := lr.tr
	switch o.kind {
	case opRecommend:
		sp := tr.begin("healthcoach.recommend", root)
		coach.Recommend(feo.IRI(o.user), 10)
		tr.end(sp)
	case opStats:
		sp := tr.begin("store.statistics", root)
		st := fg.Statistics()
		tr.end(sp)
		_ = fmt.Sprintf("triples=%d subjects=%d predicates=%d classes=%d instances=%d",
			st.Triples, st.Subjects, st.Predicates, st.Classes, st.Instances) // what Snapshot.Stats renders
	case opSPARQL:
		sp := tr.begin("sparql.parse", root)
		q, err := lr.memo.parse(o.query)
		tr.end(sp)
		if err != nil {
			return err
		}
		lr.buf.Reset()
		tw := &timedWriter{w: newWriter(o.format, &lr.buf)}
		sp = tr.begin("sparql.eval", root)
		st, err := sparql.ExecuteStream(fg, q, tw, sparql.StreamOptions{Deadline: time.Now().Add(queryDeadline)})
		tr.end(sp)
		tr.child("sparql.emit", sp, tw.elapsed)
		if err != nil {
			return err
		}
		lr.queries++
		lr.rows += st.Rows
		lr.emitBytes += tw.Written()
	}
	return nil
}

// replay runs both replays and reports the per-layer metrics, their
// reconciliation with the untraced op times, and the tracing overhead.
func (b *bench) replay(res *runResult) error {
	ops := b.ops[:min(b.spec.replayOps, len(b.ops))]
	untraced, run, inferredPerWrite, gcCycles, err := b.replayBoth(ops)
	if err != nil {
		return err
	}
	freeMemory()
	replayS, records, err := b.timeDurableReplay(res.runDir)
	if err != nil {
		return err
	}
	freeMemory()
	if err := b.writeSpans(run.tr); err != nil {
		return err
	}

	tr := run.tr
	self := tr.selfTimes()
	byName := map[string][]float64{} // span durations in ms
	selfByName := map[string][]float64{}
	for i, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], ms(s.Dur))
		selfByName[s.Name] = append(selfByName[s.Name], ms(self[i]))
	}
	n := float64(len(ops))
	L := func(name string, v float64, unit string) {
		b.set(name, v, unit)
		b.layer = append(b.layer, name)
	}
	L("serve.throughput_rps", b.metrics["serve.throughput_rps"].Value, "ops/s")
	L("serve.peak_rss_mb", b.metrics["serve.peak_rss_mb"].Value, "MB")
	L("serve.recovery_s", b.metrics["serve.recovery_s"].Value, "s")
	L("feo.pin_us.p50", 1000*percentile(byName["feo.pin"], 50), "us")
	L("feo.pin_us.p99", 1000*percentile(byName["feo.pin"], 99), "us")
	L("feo.publishes_per_1k_ops", 1000*float64(run.publishes)/n, "count")
	L("store.publish_ms.p50", percentile(byName["store.publish"], 50), "ms")
	L("store.publish_ms.p99", percentile(byName["store.publish"], 99), "ms")
	L("store.statistics_ms.p50", percentile(byName["store.statistics"], 50), "ms")
	L("store.triples_end", b.triplesEnd, "count")
	L("sparql.parse_us.p50", 1000*percentile(byName["sparql.parse"], 50), "us")
	L("sparql.plan_cache_hit_ratio", b.planHitRatio, "ratio")
	L("sparql.eval_ms.p50", percentile(selfByName["sparql.eval"], 50), "ms")
	L("sparql.eval_ms.p99", percentile(selfByName["sparql.eval"], 99), "ms")
	L("sparql.emit_ms.p50", percentile(byName["sparql.emit"], 50), "ms")
	L("sparql.emit_ms.p99", percentile(byName["sparql.emit"], 99), "ms")
	L("sparql.emit_bytes_per_row", ratio(float64(run.emitBytes), float64(run.rows)), "B")
	L("sparql.rows_per_query", ratio(float64(run.rows), float64(run.queries)), "count")
	L("healthcoach.recommend_ms.p50", percentile(byName["healthcoach.recommend"], 50), "ms")
	L("healthcoach.recommend_ms.p99", percentile(byName["healthcoach.recommend"], 99), "ms")
	L("core.explain_ms.p50", percentile(byName["core.explain"], 50), "ms")
	L("core.explain_ms.p99", percentile(byName["core.explain"], 99), "ms")
	L("reasoner.inferred_per_write", inferredPerWrite, "count")
	L("durable.append_ms.p50", percentile(byName["durable.append"], 50), "ms")
	L("durable.append_ms.p99", percentile(byName["durable.append"], 99), "ms")
	L("durable.wal_bytes_per_write", b.walPerWrite, "B")
	L("durable.boot_s", run.bootS, "s")
	L("durable.replay_s", replayS, "s")
	for k := opKind(0); k < numOpKinds; k++ {
		L("go.alloc_bytes_per_op."+k.String(), ratio(run.allocBytes[k], float64(run.opsOfKind[k])), "B")
	}
	L("go.gc_cycles_per_1k_ops", 1000*gcCycles/(2*n), "count")
	b.note("traced replay: %d ops; durable.Open of the seeded copy %.3fs, of the run's directory (%d WAL records) %.3fs",
		len(ops), run.bootS, records, replayS)

	// Reconciliation: per op type, the layer spans' self-times against the
	// untraced Session call on the same ops.
	var untracedSum, tracedSum, layerSum time.Duration
	for k := opKind(0); k < numOpKinds; k++ {
		var u, layers []float64
		for i := range ops {
			if ops[i].kind != k {
				continue
			}
			u = append(u, ms(untraced[i]))
			var sum time.Duration
			for j := run.roots[i] + 1; j < len(tr.spans) && tr.spans[j].Op == i; j++ {
				sum += self[j]
			}
			layers = append(layers, ms(sum))
		}
		var e2e []float64
		if k < opKind(len(b.latencies)) {
			e2e = b.latencies[k]
		}
		overhead := 0.0
		if len(u) > 0 && len(e2e) > 0 {
			overhead = median(e2e) - median(u)
		}
		L("serve.overhead_ms."+k.String(), overhead, "ms")
		if len(u) == 0 {
			continue
		}
		b.note("reconcile %-9s %4d ops: untraced Session p50 %.4f ms, layer self-times p50 %.4f ms, gap %+.4f ms (%+.1f%%); e2e p50 %.4f ms, serve overhead %.4f ms",
			k, len(u), median(u), median(layers), median(layers)-median(u),
			100*ratio(median(layers)-median(u), median(u)), median(e2e), overhead)
	}
	for i := range ops {
		untracedSum += untraced[i]
		tracedSum += tr.spans[run.roots[i]].Dur
		for j := run.roots[i] + 1; j < len(tr.spans) && tr.spans[j].Op == i; j++ {
			layerSum += self[j]
		}
	}
	gap := 100 * ratio(float64(layerSum-untracedSum), float64(untracedSum))
	overheadPct := 100 * ratio(float64(tracedSum-untracedSum), float64(untracedSum))
	L("trace.reconcile_gap_pct", gap, "%")
	L("trace.overhead_pct", overheadPct, "%")
	b.note("reconcile all: untraced %.1f ms, traced %.1f ms (layers %.1f ms): gap %+.2f%%, tracing overhead %+.2f%%",
		ms(untracedSum), ms(tracedSum), ms(layerSum), gap, overheadPct)

	return nil
}

// replayBoth replays ops on two fresh copies of the seeded directory,
// interleaved op by op so that both replays see the same cache and host
// state: untraced through feo.Session, and traced through the layers. The
// order within each pair alternates. It returns the untraced op times, the
// traced run, the reasoner's inferred triples per write (from
// Session.ReasonerInferred), and the GC cycles over both replays.
func (b *bench) replayBoth(ops []op) ([]time.Duration, *layerReplay, float64, float64, error) {
	sdir, ldir := filepath.Join(b.work, "replay-session"), filepath.Join(b.work, "replay-layers")
	defer os.RemoveAll(sdir)
	defer os.RemoveAll(ldir)
	if err := copyDir(b.seeded.dir, sdir); err != nil {
		return nil, nil, 0, 0, err
	}
	if err := copyDir(b.seeded.dir, ldir); err != nil {
		return nil, nil, 0, 0, err
	}
	sess, err := feo.Open(feo.Options{Data: feo.DataNone, DataDir: sdir, Sync: feo.SyncAlways})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer sess.Close()
	lr, err := openLayerReplay(ldir)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer lr.st.Close()
	sr := &sessionReplay{sess: sess}

	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(gc)
	gcStart := gc[0].Value.Uint64()
	inferredBefore, _ := sess.ReasonerInferred()
	untraced := make([]time.Duration, len(ops))
	for i := range ops {
		o := &ops[i]
		if i%2 == 1 {
			if err := lr.do(i, o); err != nil {
				return nil, nil, 0, 0, fmt.Errorf("traced op %d: %w", i, err)
			}
		}
		t0 := time.Now()
		err := sr.do(o)
		untraced[i] = time.Since(t0)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("untraced op %d: %w", i, err)
		}
		if i%2 == 0 {
			if err := lr.do(i, o); err != nil {
				return nil, nil, 0, 0, fmt.Errorf("traced op %d: %w", i, err)
			}
		}
	}
	metrics.Read(gc)
	inferredAfter, _ := sess.ReasonerInferred()
	perWrite := ratio(float64(inferredAfter-inferredBefore), float64(sr.writes))
	if err := sess.Close(); err != nil {
		return nil, nil, 0, 0, err
	}
	return untraced, lr, perWrite, float64(gc[0].Value.Uint64() - gcStart), lr.st.Close()
}

// timeDurableReplay times durable.Open on a copy of the run's directory:
// the snapshot load plus the replay of the window's WAL records.
func (b *bench) timeDurableReplay(runDir string) (float64, int, error) {
	dir := filepath.Join(b.work, "replay-wal")
	if err := copyDir(runDir, dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	st, boot, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		return 0, 0, fmt.Errorf("durable replay: %w", err)
	}
	d := time.Since(t0).Seconds()
	return d, boot.Records, st.Close()
}

// writeSpans writes the traced replay's spans as JSON next to the build.
func (b *bench) writeSpans(tr *tracer) error {
	dir := filepath.Join(b.traceDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.spec.name, b.seed)), data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
