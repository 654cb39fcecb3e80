package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	habf "repro"
)

// filter is what the benchmark needs of a filter under test.
type filter interface {
	Contains(key []byte) bool
	Add(key []byte)
	SizeBits() uint64
}

// batcher is the batch read path of habf.Sharded.
type batcher interface {
	ContainsBatchInto(dst []bool, keys [][]byte)
}

// callKeys is the size of one timed read call: one ContainsBatchInto
// call on batch-ycsb-1m, and as many point calls on paper-shalla-1m.
const callKeys = 256

// inProcess is a workload whose reads are in-process calls: build, count
// accuracy, snapshot and restore, then time reads with a batch of Adds to
// the restored copy after each round.
type inProcess struct {
	bitsPerKey float64
	url        bool   // fresh keys are URLs rather than YCSB keys
	layer      string // span name of the read call
	stream     func(n int, seed int64) *stream
	build      func(pos [][]byte, neg []habf.WeightedKey, bits uint64) (filter, error)
	read       func(f filter, dst []bool, keys [][]byte)
	save       func(f filter, buf *bytes.Buffer) error
	load       func(data []byte) (filter, error)
}

func runPaper(cfg config) (*report, error) {
	return inProcess{
		bitsPerKey: 8,
		url:        true,
		layer:      "habf",
		stream:     shallaStream,
		build: func(pos [][]byte, neg []habf.WeightedKey, bits uint64) (filter, error) {
			return habf.New(pos, neg, bits)
		},
		read: func(f filter, dst []bool, keys [][]byte) {
			for i, k := range keys {
				dst[i] = f.Contains(k)
			}
		},
		save: func(f filter, buf *bytes.Buffer) error {
			data, err := f.(*habf.HABF).MarshalBinary()
			buf.Write(data)
			return err
		},
		// Zero-copy where alignment allows, as habf.Load restores a set.
		load: func(data []byte) (filter, error) { return habf.UnmarshalHABFBorrow(data) },
	}.run(cfg)
}

func runBatch(cfg config) (*report, error) {
	return inProcess{
		bitsPerKey: 10,
		layer:      "shard",
		stream:     ycsbStream,
		build:      buildSharded,
		read:       func(f filter, dst []bool, keys [][]byte) { f.(batcher).ContainsBatchInto(dst, keys) },
		save:       func(f filter, buf *bytes.Buffer) error { return f.(*habf.Sharded).Save(buf) },
		load:       func(data []byte) (filter, error) { return habf.Load(data) },
	}.run(cfg)
}

// buildSharded builds the 8-shard HABF set of batch-ycsb-1m and
// serve-binary-1m.
func buildSharded(pos [][]byte, neg []habf.WeightedKey, bits uint64) (filter, error) {
	return habf.NewSharded(pos, neg, bits, habf.WithShards(8))
}

func (w inProcess) run(cfg config) (*report, error) {
	rep := newReport()
	ph := newPhases(rep)
	st := w.stream(cfg.n, cfg.seed)
	pos, neg := st.inputs()
	bits := uint64(w.bitsPerKey * float64(len(pos)))
	ph.done("inputs")

	var inner filter
	var err error
	rep.e2e["setup_s"], err = repeat(cfg.builds, func() { inner = nil }, func() error {
		cfg.tr.begin("setup."+w.layer, 0)
		inner, err = w.build(pos, neg, bits)
		cfg.tr.end()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	// The filter keeps what it needs of the inputs; dropping the
	// benchmark's copies keeps the GC fences of the timed phase short.
	pos, neg = nil, nil
	f := inner
	if cfg.wrap != nil {
		f = cfg.wrap(inner)
	}
	ph.done("setup")
	want := accuracy(rep, f, st)
	ph.done("accuracy")

	// The restored copy answers like the original, and then takes the
	// timed Adds, so the timed reads see an unchanging filter.
	var snap bytes.Buffer
	if err := w.save(inner, &snap); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	restored, err := w.load(snap.Bytes())
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	checkReads(rep, func(dst []bool, keys [][]byte) { w.read(restored, dst, keys) }, st.keys, want)
	ph.done("snapshot")

	// Snapshot and restore are timed after every round, beside the Adds.
	times := &snapTimes{tr: cfg.tr, save: func(buf *bytes.Buffer) error { return w.save(inner, buf) }, load: w.load}
	var snapErr error
	fresh := freshKeys(cfg.seed, len(st.keys), 0, (measuredRounds+1)*cfg.adds, w.url)
	added := 0
	dst := make([]bool, callKeys)
	off := 0
	var req int64
	rs := runRounds(cfg.measure, func(r *round) bool {
		keys := st.keys[off : off+callKeys]
		cfg.tr.begin("bench", req)
		cfg.tr.begin(w.layer, req)
		start := time.Now()
		w.read(f, dst, keys)
		r.lat = append(r.lat, float64(time.Since(start).Nanoseconds())/1e3)
		cfg.tr.end()
		for j, got := range dst {
			rep.check(got == want[off+j])
		}
		cfg.tr.end()
		r.ops += callKeys
		if off += callKeys; off == len(st.keys) {
			off = 0
		}
		req++
		return true
	}, func(r *round) {
		r.addLat = timeEach(r.addLat, cfg.tr, w.layer+".Add", fresh[added:added+cfg.adds], restored.Add)
		added += cfg.adds
		if snapErr == nil {
			snapErr = times.take(snapsPerRound)
		}
	})
	if snapErr != nil {
		return nil, snapErr
	}
	timed(rep, rs, false)
	times.record(rep)
	for _, k := range fresh[:added] {
		rep.check(restored.Contains(k))
	}
	restored = nil
	ph.done("timed")

	if cfg.tr != nil {
		in := ledgerIn{st: st, bitsPerKey: w.bitsPerKey, url: w.url,
			snapBytes: snap.Len(), rs: rs, freshFrom: added}
		switch g := inner.(type) {
		case *habf.HABF:
			stats := g.Stats()
			in.stats = &stats
		case *habf.Sharded:
			in.set = g
		}
		if err := ledger(cfg, rep, in); err != nil {
			return nil, err
		}
		ph.done("ledger")
	}
	return rep, nil
}

// accuracy asks f about every probe key once, point by point, before any
// timed phase or Add. A positive answering absent is a failed operation.
// False positives are counted into fpr (gated), the cost-weighted FPR
// (reported, not gated: see README.md) and checked against the
// standard-Bloom bound at the same bits per key. It returns the answer
// every later read must give: true for positives, the point answer for
// negatives.
func accuracy(rep *report, f filter, st *stream) []bool {
	want := make([]bool, len(st.keys))
	var fp, negs int
	var fpCost, cost float64
	for i, k := range st.keys {
		got := f.Contains(k)
		if st.pos[i] {
			rep.check(got)
			want[i] = true
			continue
		}
		want[i] = got
		negs++
		cost += st.cost[i]
		if got {
			fp++
			fpCost += st.cost[i]
		}
	}
	fpr := float64(fp) / float64(negs)
	bpk := float64(f.SizeBits()) / float64(st.npos)
	rep.e2e["fpr"] = single(fpr)
	rep.e2e["bits_per_key"] = single(bpk)
	rep.layer["habf.weighted_fpr"] = fpCost / cost
	bound := bloomBound(bpk)
	rep.note("accuracy false_positives %d of %d fpr %.6f weighted_fpr %.6f bloom_bound %.6f", fp, negs, fpr, fpCost/cost, bound)
	if fpr > bound {
		rep.violations = append(rep.violations,
			fmt.Sprintf("fpr %.6f exceeds the standard Bloom bound %.6f at %.3f bits/key", fpr, bound, bpk))
	}
	return want
}

// bloomBound is the closed-form false-positive rate of a standard Bloom
// filter at b bits per key with the best whole number of hash functions:
// min over k of (1 - e^{-k/b})^k.
func bloomBound(b float64) float64 {
	best := 1.0
	for k := 1; k <= 64; k++ {
		best = math.Min(best, math.Pow(1-math.Exp(-float64(k)/b), float64(k)))
	}
	return best
}

func single(v float64) summary { return summary{q1: v, med: v, q3: v, n: 1} }

// timed records the timed phase's end-to-end figures. keys_per_s is the
// median of the round rates, or with overall the phase's total answers
// over its total time.
func timed(rep *report, rs roundStats, overall bool) {
	rep.e2e["keys_per_s"] = rs.keysPerS
	if overall {
		k := rs.keysPerS
		k.med = rs.overall
		rep.e2e["keys_per_s"] = k
	}
	rep.e2e["latency_p50_us"] = rs.p50
	rep.e2e["latency_p90_us"] = rs.p90
	rep.e2e["add_p50_us"] = rs.addP50
	rep.note("latency_p99_us %.6g (q1 %.6g q3 %.6g; for reference, not gated)", rs.p99.med, rs.p99.q1, rs.p99.q3)
	rep.note("timed ops %d over %d rounds (%.6g keys/s overall); gc %d cpu %.3f s ctx_switches %d mallocs %d",
		rs.ops, rs.keysPerS.n, rs.overall, rs.gcCycles, rs.cpu.Seconds(), rs.ctxSwitches, rs.mallocs)
	line := "rounds keys/s"
	for _, v := range rs.perRound {
		line += fmt.Sprintf(" %.4g", v)
	}
	rep.note("%s", line)
}

// snapsPerRound is how many snapshot and restore samples are taken after
// each timed round of the in-process workloads.
const snapsPerRound = 2

// snapTimes samples snapshot_s and restore_s: saves into its own buffer
// and restores from it, discarding the restored copy. A save leaves about
// one snapshot's size of garbage, far below the heap's headroom after a
// GC fence, so no collection starts inside a sample.
type snapTimes struct {
	tr            *tracer
	save          func(buf *bytes.Buffer) error
	load          func([]byte) (filter, error)
	buf           bytes.Buffer
	snap, restore sampler
}

// take records n samples of each.
func (t *snapTimes) take(n int) error {
	err := t.snap.take(n, func() error {
		t.tr.begin("snapshot.save", 0)
		defer t.tr.end()
		t.buf.Reset()
		return t.save(&t.buf)
	})
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	err = t.restore.take(n, func() error {
		t.tr.begin("snapshot.load", 0)
		defer t.tr.end()
		_, err := t.load(t.buf.Bytes())
		return err
	})
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	return nil
}

func (t *snapTimes) record(rep *report) {
	rep.e2e["snapshot_s"] = t.snap.summary()
	rep.e2e["restore_s"] = t.restore.summary()
	rep.note("snapshot %d bytes; %d samples of %d save(s) and of %d restore(s)",
		t.buf.Len(), len(t.snap.ds), t.snap.calls, t.restore.calls)
}

// checkReads compares read's answers over keys, a call per callKeys
// keys, with want.
func checkReads(rep *report, read func(dst []bool, keys [][]byte), keys [][]byte, want []bool) {
	dst := make([]bool, callKeys)
	for off := 0; off < len(keys); off += callKeys {
		chunk := keys[off:min(off+callKeys, len(keys))]
		read(dst, chunk)
		for j := range chunk {
			rep.check(dst[j] == want[off+j])
		}
	}
}
