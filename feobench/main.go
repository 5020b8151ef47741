// Command feobench is the repository's end-to-end benchmark. It seeds a
// durable data directory from a synthetic FoodKG, boots the real
// `feo serve -data none -datadir <fresh copy> -sync commit` binary on it,
// drives one workload over HTTP from a fixed number of closed-loop
// clients, checks every answer against the in-process engine, and prints
// the end-to-end metrics. With -trace 1 it additionally replays the
// workload's op sequence in-process, once through the untraced feo.Session
// and once through the layers wired by hand with spans around each call,
// and prints the per-layer metrics with their reconciliation.
//
// Usage (from the repository root; feobench/run.sh builds both binaries):
//
//	feobench -feo .bench_build/feo -workload coach -seed 1 -seconds 18 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// clients is the number of closed-loop HTTP clients, and so the largest
// number of connections the benchmark ever opens to the server.
const clients = 2

// warmup is driven before the measured window and excluded from it.
const warmup = 2 * time.Second

// Set-up and recovery are each timed over repeated boots, the reported
// figure being the median: at least minBoots, and more until bootBudget
// has been spent, so small graphs (fast boots) get more samples.
const (
	minBoots   = 5
	bootBudget = 2 * time.Second
)

// moreBoots reports whether another boot is due after n boots that took
// spent in total.
func moreBoots(n int, spent time.Duration) bool { return n < minBoots || spent < bootBudget }

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "coach, kbqa or explain-write")
	seed := flag.Int64("seed", 1, "seeds the FoodKG and the request sequence")
	seconds := flag.Int("seconds", 18, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = also run the traced in-process replay and report per-layer metrics")
	feoBin := flag.String("feo", ".bench_build/feo", "feo binary to serve")
	workRoot := flag.String("work", ".bench_build", "directory for per-run data copies")
	flag.Parse()

	spec, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "feobench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "feobench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	bin, err := filepath.Abs(*feoBin)
	if err == nil {
		_, err = os.Stat(bin)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "feobench: feo binary: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*workRoot, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "feobench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &bench{spec: spec, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, feoBin: bin, work: work, traceDir: *workRoot, metrics: map[string]metric{}}
	if err := b.run(); err != nil {
		fmt.Fprintf(os.Stderr, "feobench: %v\n", err)
		return 1
	}
	b.print()
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench holds one run's configuration and everything it measured.
type bench struct {
	spec     workloadSpec
	seed     int64
	window   time.Duration
	traced   bool
	feoBin   string
	work     string
	traceDir string

	seeded *seededKG
	ops    []op

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	// e2e and layer name the metrics printed in each JSON mode; info lines
	// are printed for the reader only.
	e2e, layer []string
	info       []string

	// Figures of the HTTP run that the traced report reuses.
	latencies                             [][]float64 // ms per op kind, window only
	planHitRatio, triplesEnd, walPerWrite float64
	repeatUserShare, newQuestionShare     float64
	distinctTexts                         int
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

func (b *bench) note(format string, args ...any) {
	b.info = append(b.info, fmt.Sprintf(format, args...))
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// run is the whole benchmark: seed, time set-up, drive the window, time
// recovery, check answers, and (traced) replay in-process.
func (b *bench) run() error {
	var phases []string
	last := time.Now()
	phase := func(name string) {
		phases = append(phases, fmt.Sprintf("%s %.1fs", name, time.Since(last).Seconds()))
		last = time.Now()
	}
	defer func() { b.note("phases: %s", strings.Join(phases, ", ")) }()

	var err error
	b.seeded, err = seed(b.spec, b.seed, filepath.Join(b.work, "seed"))
	if err != nil {
		return fmt.Errorf("seeding: %w", err)
	}
	b.ops = genOps(b.spec, b.seeded, b.seed, opsFor(b.spec, b.window))
	freeMemory()
	phase("seed")

	srv, err := b.timeSetup()
	if err != nil {
		return err
	}
	phase("setup")
	res, err := b.drive(srv)
	if err != nil {
		srv.kill()
		return err
	}
	phase("window")
	if err := b.timeRecovery(srv, res); err != nil {
		return err
	}
	phase("recovery")
	if err := b.checkAnswers(res); err != nil {
		return err
	}
	b.report(res)
	phase("checks")
	if b.traced {
		if err := b.replay(res); err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		phase("replay")
	}
	return nil
}

// print writes the human-readable report, then the JSON result line.
func (b *bench) print() {
	fmt.Printf("workload %s seed %d window %s clients %d (closed loop)\n", b.spec.name, b.seed, b.window, clients)
	for _, line := range b.info {
		fmt.Println("  " + line)
	}
	for _, p := range b.problems {
		fmt.Println("  FAILED CHECK: " + p)
	}
	names := b.e2e
	if b.traced {
		names = b.layer
	}
	// The gated metrics first, then every other figure the run took.
	printed := map[string]bool{}
	for _, n := range append(slices.Clone(b.e2e), slices.Sorted(maps.Keys(b.metrics))...) {
		if printed[n] {
			continue
		}
		printed[n] = true
		m := b.metrics[n]
		fmt.Printf("  %-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.problems) == 0 && b.failed == 0, b.attempted, b.failed, map[string]metric{}}
	for _, n := range names {
		out.Metrics[n] = b.metrics[n]
	}
	line, _ := json.Marshal(out) // plain floats and strings cannot fail to encode
	fmt.Println(string(line))
}

// freeMemory returns the bench process's garbage to the OS so that its
// own heap does not compete with the server for the host's memory.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank]
}

func median(xs []float64) float64 { return percentile(xs, 50) }
