package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// small shrinks a workload to run in well under a second.
func small(w spec) config {
	cfg := w.base
	cfg.seed = 7
	cfg.n = 1 << 12
	cfg.builds = 2
	if cfg.adds > 0 {
		cfg.adds = 16
	}
	cfg.measure = 200 * time.Millisecond
	return cfg
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := small(w)
			cfg.tr = newTracer()
			rep, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted == 0 || rep.failed != 0 || len(rep.violations) != 0 {
				t.Fatalf("attempted %d failed %d violations %v", rep.attempted, rep.failed, rep.violations)
			}
			values := map[string]float64{}
			for name, s := range rep.e2e {
				values[name] = s.med
			}
			for _, m := range endToEnd {
				if values[m.name] <= 0 {
					t.Errorf("%s = %v, want a positive measurement", m.name, values[m.name])
				}
			}
			if _, err := resultLine(rep, endToEnd, values); err != nil {
				t.Error(err)
			}
			if _, err := resultLine(rep, perLayer, rep.layer); err != nil {
				t.Error(err)
			}
			if len(cfg.tr.self) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// dropOnce answers absent the first time it is asked about victim.
type dropOnce struct {
	filter
	victim  string
	dropped bool
}

func (d *dropOnce) drop(key []byte) bool {
	if !d.dropped && string(key) == d.victim {
		d.dropped = true
		return true
	}
	return false
}

func (d *dropOnce) Contains(key []byte) bool {
	return !d.drop(key) && d.filter.Contains(key)
}

func (d *dropOnce) ContainsBatchInto(dst []bool, keys [][]byte) {
	d.filter.(batcher).ContainsBatchInto(dst, keys)
	for i, k := range keys {
		if d.drop(k) {
			dst[i] = false
		}
	}
}

func TestDroppedPositiveIsOneFailedOperation(t *testing.T) {
	for _, w := range workloads[:2] {
		t.Run(w.name, func(t *testing.T) {
			cfg := small(w)
			gen := map[string]func(int, int64) *stream{
				"paper-shalla-1m": shallaStream, "batch-ycsb-1m": ycsbStream}[w.name]
			st := gen(cfg.n, cfg.seed)
			var victim string
			for i, k := range st.keys {
				if st.pos[i] {
					victim = string(k)
					break
				}
			}
			cfg.wrap = func(f filter) filter { return &dropOnce{filter: f, victim: victim} }
			rep, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 1 {
				t.Fatalf("failed = %d, want 1", rep.failed)
			}
		})
	}
}

// setFilter answers from a fixed set and reports a fixed size.
type setFilter struct {
	keys map[string]bool
	bits uint64
}

func (s setFilter) Contains(key []byte) bool { return s.keys[string(key)] }
func (s setFilter) Add(key []byte)           { s.keys[string(key)] = true }
func (s setFilter) SizeBits() uint64         { return s.bits }

func TestAccuracyCountsHandComputedCase(t *testing.T) {
	st := &stream{
		keys: [][]byte{[]byte("p1"), []byte("n1"), []byte("n2"), []byte("p2"), []byte("n3"), []byte("n4")},
		pos:  []bool{true, false, false, true, false, false},
		cost: []float64{0, 1, 2, 0, 3, 4},
		npos: 2,
	}
	// p2 is lost (a false negative); n3 (cost 3) is a false positive.
	f := setFilter{keys: map[string]bool{"p1": true, "n3": true}, bits: 20}
	rep := newReport()
	want := accuracy(rep, f, st)
	if rep.attempted != 2 || rep.failed != 1 {
		t.Errorf("attempted %d failed %d, want 2 and 1", rep.attempted, rep.failed)
	}
	if got := rep.e2e["fpr"].med; got != 0.25 {
		t.Errorf("fpr = %v, want 1/4", got)
	}
	if got := rep.layer["habf.weighted_fpr"]; got != 0.3 {
		t.Errorf("weighted fpr = %v, want 3/10", got)
	}
	if got := rep.e2e["bits_per_key"].med; got != 10 {
		t.Errorf("bits per key = %v, want 10", got)
	}
	// 0.25 is far above a 10 bits/key Bloom filter's bound.
	if len(rep.violations) != 1 {
		t.Errorf("violations = %v, want the Bloom bound", rep.violations)
	}
	wantAnswers := []bool{true, false, false, true, true, false}
	for i := range want {
		if want[i] != wantAnswers[i] {
			t.Errorf("want[%d] = %v, expected %v", i, want[i], wantAnswers[i])
		}
	}
}

func TestBloomBound(t *testing.T) {
	// 10 bits/key: k = 7 is best, (1 - e^{-0.7})^7.
	want := math.Pow(1-math.Exp(-0.7), 7)
	if got := bloomBound(10); math.Abs(got-want) > 1e-15 {
		t.Errorf("bloomBound(10) = %v, want %v", got, want)
	}
	// 8 bits/key: k = 6 (0.0216) beats k = 5 (0.0217).
	if got := bloomBound(8); math.Abs(got-math.Pow(1-math.Exp(-0.75), 6)) > 1e-15 {
		t.Errorf("bloomBound(8) = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2, 5})
	if s.q1 != 2 || s.med != 3 || s.q3 != 4 || s.n != 5 {
		t.Errorf("summarize = %+v", s)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the checkout root
// holds, in step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []metric
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d here", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: %s %s vs %s %s", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
