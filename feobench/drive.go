package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// record is one completed request.
type record struct {
	op      int // index into the op sequence
	kind    opKind
	start   time.Time
	latency time.Duration
	// err is a transport error or non-2xx status; empty when answered.
	err  string
	hash uint64
}

// explainAck is one acknowledged explanation.
type explainAck struct {
	exType, summary string
}

// runResult is what the HTTP run recorded.
type runResult struct {
	runDir  string
	records []record
	// windowStart begins the measured window; records that started
	// before it are warm-up.
	windowStart time.Time
	// bodies keeps one body per distinct (op key, body hash) for the
	// answer checks.
	bodies map[string]map[uint64][]byte
	acks   []explainAck
	// before/after are /metrics scrapes around the window.
	before, after map[string]float64
	// cpuS is the server's CPU time over the window; stealShare the
	// share of the host's CPU time stolen by the hypervisor meanwhile.
	cpuS, stealShare float64
	walBefore        int64
	walAfter         int64
	peakRSSMB        float64
	opIndexWraps     bool
}

func (r *runResult) inWindow(rec *record) bool { return !rec.start.Before(r.windowStart) }

// timeSetup boots the server repeatedly (see moreBoots), each time on a
// fresh copy of the seeded directory, reports the median time to the
// first 200 as setup_s, and leaves the last server running for the
// measured window.
func (b *bench) timeSetup() (*server, error) {
	var times []float64
	var spent time.Duration
	for i := 0; ; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("serve-%d", i))
		if err := copyDir(b.seeded.dir, dir); err != nil {
			return nil, err
		}
		s, d, err := boot(b.feoBin, dir)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		spent += d
		if !moreBoots(len(times), spent) {
			b.set("setup_s", median(times), "s")
			b.note("setup: %d boots on fresh copies, %s", len(times), fmtSeconds(times))
			return s, nil
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
}

// drive runs the closed loop: `clients` goroutines each send the next op
// of the shared sequence and wait for its answer. Warm-up runs first and
// is excluded; the window then runs for b.window.
func (b *bench) drive(srv *server) (*runResult, error) {
	res := &runResult{runDir: srv.dir, bodies: map[string]map[uint64][]byte{}}
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}

	var err error
	if res.walBefore, err = walBytes(srv.dir); err != nil {
		return nil, err
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	var scrapeErr error
	res.windowStart = time.Now().Add(warmup)
	end := res.windowStart.Add(b.window)

	// The before-window scrape is taken by a timer between warm-up and
	// window; it shares the clients' connection pool, so the connection
	// count stays within `clients`.
	scrapeDone := make(chan struct{})
	var cpu0, steal0, total0 float64
	go func() {
		defer close(scrapeDone)
		time.Sleep(time.Until(res.windowStart))
		c, err1 := srv.cpuSeconds()
		st, tot, err2 := hostSteal()
		m, err := srv.scrape(hc)
		mu.Lock()
		res.before, scrapeErr = m, errors.Join(err, err1, err2)
		cpu0, steal0, total0 = c, st, tot
		mu.Unlock()
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(b.ops) {
					mu.Lock()
					res.opIndexWraps = true
					mu.Unlock()
				}
				o := &b.ops[i%len(b.ops)]
				rec, body, ack := b.do(hc, srv.base, o, &buf)
				rec.op = i % len(b.ops)
				rec.start = now
				mu.Lock()
				res.records = append(res.records, rec)
				if rec.err == "" {
					key := o.key()
					m := res.bodies[key]
					if m == nil {
						m = map[uint64][]byte{}
						res.bodies[key] = m
					}
					if _, seen := m[rec.hash]; !seen && o.kind != opExplain {
						m[rec.hash] = bytes.Clone(body)
					}
				}
				if ack != nil {
					res.acks = append(res.acks, *ack)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cpu1, err1 := srv.cpuSeconds()
	steal1, total1, err2 := hostSteal()
	<-scrapeDone
	if err := errors.Join(scrapeErr, err1, err2); err != nil {
		return nil, fmt.Errorf("reading server counters: %w", err)
	}
	res.cpuS = cpu1 - cpu0
	res.stealShare = ratio(steal1-steal0, total1-total0)
	if res.after, err = srv.scrape(hc); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if res.walAfter, err = walBytes(srv.dir); err != nil {
		return nil, err
	}
	if res.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	return res, nil
}

// do sends one op and reads the full answer into buf.
func (b *bench) do(hc *http.Client, base string, o *op, buf *bytes.Buffer) (record, []byte, *explainAck) {
	rec := record{kind: o.kind}
	req, err := buildRequest(base, o)
	if err != nil {
		rec.err = err.Error()
		return rec, nil, nil
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	rec.latency = time.Since(t0)
	switch {
	case err != nil:
		rec.err = err.Error()
		return rec, nil, nil
	case resp.StatusCode/100 != 2:
		rec.err = fmt.Sprintf("status %d: %.200s", resp.StatusCode, buf.String())
		return rec, nil, nil
	case resp.Trailer.Get("X-Feo-Truncated") != "":
		rec.err = "truncated answer: " + resp.Trailer.Get("X-Feo-Truncated")
		return rec, nil, nil
	}
	body := buf.Bytes()
	rec.hash = fingerprint(o, body)
	if o.kind != opExplain {
		return rec, body, nil
	}
	var ex struct {
		Summary string `json:"summary"`
	}
	if err := json.Unmarshal(body, &ex); err != nil || strings.TrimSpace(ex.Summary) == "" {
		rec.err = fmt.Sprintf("explain answer without a summary: %.200s", body)
		return rec, nil, nil
	}
	return rec, body, &explainAck{exType: o.exType.String(), summary: ex.Summary}
}

// fingerprint hashes an answer so that equal answers hash equal. SELECT
// rows come in no fixed order, so a SPARQL answer hashes as the multiset
// of its rows (lines, or <result> elements in XML) plus everything else;
// the answer checks still compare the stored body itself.
func fingerprint(o *op, body []byte) uint64 {
	if o.kind != opSPARQL {
		return fnv64(body)
	}
	var sum uint64
	add := func(part []byte) {
		sum += fnv64(bytes.TrimSuffix(bytes.TrimSpace(part), []byte(",")))
	}
	if o.format != "xml" {
		for part := range bytes.SplitSeq(body, []byte("\n")) {
			add(part)
		}
		return sum
	}
	for part := range bytes.SplitSeq(body, []byte("<result>")) {
		row, rest, _ := bytes.Cut(part, []byte("</result>"))
		add(row)
		add(rest)
	}
	return sum
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func buildRequest(base string, o *op) (*http.Request, error) {
	switch o.kind {
	case opRecommend:
		return http.NewRequest(http.MethodGet, base+"/recommend?limit=10&user="+url.QueryEscape(o.user), nil)
	case opStats:
		return http.NewRequest(http.MethodGet, base+"/stats", nil)
	case opExplain:
		body, err := json.Marshal(map[string]string{"type": o.exType.String(), "primary": o.primary,
			"secondary": o.secondary, "user": o.askedBy})
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequest(http.MethodPost, base+"/explain", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}
	target := base + "/sparql?format=" + o.format
	switch o.form {
	case formPOSTForm:
		req, err := http.NewRequest(http.MethodPost, target,
			strings.NewReader(url.Values{"query": {o.query}}.Encode()))
		if err == nil {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
		return req, err
	case formPOSTDirect:
		req, err := http.NewRequest(http.MethodPost, target, strings.NewReader(o.query))
		if err == nil {
			req.Header.Set("Content-Type", "application/sparql-query")
		}
		return req, err
	default:
		return http.NewRequest(http.MethodGet, target+"&query="+url.QueryEscape(o.query), nil)
	}
}

// timeRecovery kills the window's server with SIGKILL and reboots on the
// run's directory repeatedly (see moreBoots), killing each reboot with
// SIGKILL again; serve.recovery_s is the median time to the first 200. The
// first reboot also checks that every acknowledged explanation survived
// the crash.
func (b *bench) timeRecovery(srv *server, res *runResult) error {
	srv.kill()
	freeMemory()
	var times []float64
	var spent time.Duration
	for {
		s, d, err := boot(b.feoBin, res.runDir)
		if err != nil {
			return fmt.Errorf("recovery boot: %w", err)
		}
		times = append(times, d.Seconds())
		spent += d
		if len(times) == 1 && len(res.acks) > 0 {
			if err := b.checkAcks(s, res.acks); err != nil {
				s.kill()
				return err
			}
		}
		if !moreBoots(len(times), spent) {
			if err := s.stop(); err != nil {
				return err
			}
			break
		}
		s.kill()
	}
	b.set("serve.recovery_s", median(times), "s")
	b.note("recovery: SIGKILL then %d reboots on the run's directory, %s", len(times), fmtSeconds(times))
	return nil
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3fs", x)
	}
	return strings.Join(parts, " ")
}

// fetch runs one GET and returns the body of a 200 answer.
func fetch(hc *http.Client, target string) ([]byte, error) {
	resp, err := hc.Get(target)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	return body, nil
}
