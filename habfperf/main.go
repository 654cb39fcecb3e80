// Command habfperf is the repository's end-to-end benchmark: three seeded
// workloads that time HABF construction, point and batch reads, Adds,
// snapshots and binary-protocol serving, and check every answer against
// the benchmark's own oracle as they go. Run it through run.sh, which
// builds it from the checkout:
//
//	bash habfperf/run.sh --workload paper-shalla-1m --seed 1 --seconds 20 --trace 0
//
// Human-readable lines come first; the last line of standard output is
// one JSON object with correct, attempted, failed and the metrics: the
// end-to-end ones untraced, the per-layer ledger with --trace 1. README.md
// describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// procs pins GOMAXPROCS so runs on hosts of different sizes schedule the
// same number of busy goroutines.
const procs = 2

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the filter sees, in BENCHMARK.json
// order. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"keys_per_s", "keys/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"add_p50_us", "us"},
	{"fpr", "ratio"},
	{"bits_per_key", "bits"},
	{"snapshot_s", "s"},
	{"restore_s", "s"},
}

// perLayer is the traced run's ledger, in BENCHMARK.json order. README.md
// names the end-to-end metric and workload each one should move.
var perLayer = []metricDef{
	{"hashes.base_ns_per_key", "ns"},
	{"hashes.corpus_ns_per_eval", "ns"},
	{"habf.round1_fpr", "ratio"},
	{"habf.round1_weighted_fpr", "ratio"},
	{"habf.weighted_fpr", "ratio"},
	{"habf.collision_keys", "count"},
	{"habf.optimized_keys", "count"},
	{"habf.failed_keys", "count"},
	{"habf.adjusted_positives", "count"},
	{"filtercore.probe_ns_per_key", "ns"},
	{"shard.batch_ns_per_key", "ns"},
	{"shard.route_ns_per_key", "ns"},
	{"shard.add_us", "us"},
	{"shard.rebuilds", "count"},
	{"snapshot.bytes", "bytes"},
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.decode_ns_per_frame", "ns"},
	{"server.coalesce_mean_batch", "keys"},
	{"server.coalesce_batches", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"os.ctx_switches_per_op", "count"},
	{"os.cpu_us_per_op", "us"},
}

// config sizes one run. Workloads fill the sizes; tests shrink them.
type config struct {
	seed    int64
	measure time.Duration // total length of the timed rounds
	n       int           // positives, and as many negatives
	builds  int           // constructions timed for setup_s
	adds    int           // in-process Adds per timed round (paper and batch)
	tr      *tracer       // nil unless traced
	// wrap, when set, replaces the filter under test; tests use it to
	// inject faults the checks must catch.
	wrap func(filter) filter
}

// report is one run's outcome. Every answer the benchmark checks is one
// attempted operation; a false negative, a wrong batch or restored
// answer, or a protocol error is a failed one. violations lists broken
// properties of the method itself (an FPR above the Bloom bound), which
// make the run incorrect.
type report struct {
	attempted, failed int64
	violations        []string
	e2e               map[string]summary
	layer             map[string]float64
	notes             []string
}

func newReport() *report {
	return &report{e2e: map[string]summary{}, layer: map[string]float64{}}
}

// check counts one checked answer.
func (r *report) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// spec is one workload; BENCHMARK.json records why each was chosen.
type spec struct {
	name string
	base config
	run  func(cfg config) (*report, error)
}

var workloads = []spec{
	{"paper-shalla-1m", config{n: 1 << 20, builds: 3, adds: 1 << 10}, runPaper},
	{"batch-ycsb-1m", config{n: 1 << 20, builds: 3, adds: 1 << 11}, runBatch},
	{"serve-binary-1m", config{n: 1 << 20, builds: 3}, runServe},
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measuring time of the timed phase")
	traced := flag.Int("trace", 0, "1 records spans and reports the per-layer ledger")
	traceDir := flag.String("trace-dir", ".", "directory the span file is written to")
	flag.Parse()
	var w *spec
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: habfperf --workload {paper-shalla-1m|batch-ycsb-1m|serve-binary-1m} --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	cfg := w.base
	cfg.seed = *seed
	cfg.measure = time.Duration(*seconds) * time.Second
	if *traced == 1 {
		cfg.tr = newTracer()
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d gomaxprocs %d numcpu %d\n",
		w.name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("reference loop start %.1f ms\n", float64(referenceLoop())/1e6)
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "habfperf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Printf("reference loop end %.1f ms\n", float64(referenceLoop())/1e6)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		fmt.Printf("max_rss %d MiB\n", ru.Maxrss>>10)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, m := range endToEnd {
		s := rep.e2e[m.name]
		fmt.Printf("metric %-16s %14.6g %-6s q1 %.6g q3 %.6g n %d\n", m.name, s.med, m.unit, s.q1, s.q3, s.n)
	}
	defs := endToEnd
	values := map[string]float64{}
	for name, s := range rep.e2e {
		values[name] = s.med
	}
	if cfg.tr != nil {
		defs, values = perLayer, rep.layer
		for _, m := range perLayer {
			fmt.Printf("layer %-28s %14.6g %s\n", m.name, rep.layer[m.name], m.unit)
		}
		for _, line := range cfg.tr.selfTimes() {
			fmt.Println(line)
		}
		path := filepath.Join(*traceDir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, *seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "habfperf: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans %d kept of %d, written to %s\n", len(cfg.tr.log), cfg.tr.next, path)
	}
	for _, v := range rep.violations {
		fmt.Println("violation", v)
	}
	line, err := resultLine(rep, defs, values)
	if err != nil {
		fmt.Fprintf(os.Stderr, "habfperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// resultLine renders the final JSON object over the metrics in defs.
func resultLine(rep *report, defs []metricDef, values map[string]float64) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = value{v, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.violations) == 0 && rep.attempted > 0, rep.attempted, rep.failed, metrics})
	return string(out), err
}
