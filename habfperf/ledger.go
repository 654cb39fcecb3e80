package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"time"

	habf "repro"
	"repro/internal/filtercore"
	ihabf "repro/internal/habf"
	"repro/internal/hashes"
	"repro/internal/server"
	"repro/internal/wire"
)

// ledgerIn is what a traced run hands the per-layer ledger.
type ledgerIn struct {
	st         *stream
	bitsPerKey float64
	url        bool
	stats      *habf.Stats   // the workload's own unsharded HABF, if any
	set        *habf.Sharded // the workload's own sharded set, if any
	snapBytes  int
	rs         roundStats // the timed phase
	freshFrom  int        // first fresh key no Add has used
	rebuilds   uint64     // shard rebuilds during the timed phase
	coalesce   server.CoalesceStats
}

const (
	// ledgerKeys caps the probe keys each layer's timing walks.
	ledgerKeys = 1 << 20
	// ledgerFrames is how many request frames the codec timings use.
	ledgerFrames = 1 << 16
	// ledgerAdds is how many in-process Set.Add calls are timed.
	ledgerAdds = 1 << 11
	// familySize is how many corpus functions a default HABF (4-bit
	// HashExpressor cells, 2^3-1 indices) selects from.
	familySize = 7
)

// ledger times the benchmark's own calls into each layer's public
// functions on the workload's keys, and reads the counts the layers
// expose. Every workload fills every entry; a layer the workload's
// request path does not use is timed on the same keys anyway, so each
// entry has the same meaning on every workload.
func ledger(cfg config, rep *report, in ledgerIn) error {
	L := rep.layer
	keys := in.st.keys[:min(len(in.st.keys), ledgerKeys)]

	cfg.tr.begin("ledger.hashes", 0)
	L["hashes.base_ns_per_key"] = nsPer(len(keys), func() {
		for _, k := range keys {
			sink ^= hashes.Base(k)
		}
	})
	fns := hashes.CorpusFuncs()[:familySize]
	L["hashes.corpus_ns_per_eval"] = nsPer(len(keys)*len(fns), func() {
		for _, fn := range fns {
			for _, k := range keys {
				sink ^= fn(k)
			}
		}
	})
	cfg.tr.end()

	// Shard 0 of 8 takes the keys whose base hash has its top three bits
	// clear; its share comes with the base hashes the shard layer passes.
	var shareKeys, sharePos [][]byte
	var shareHashes []uint64
	var shareNeg []ihabf.WeightedKey
	for i, k := range in.st.keys {
		h := hashes.Base(k)
		if h>>61 != 0 {
			continue
		}
		shareKeys, shareHashes = append(shareKeys, k), append(shareHashes, h)
		if in.st.pos[i] {
			sharePos = append(sharePos, k)
		} else {
			shareNeg = append(shareNeg, ihabf.WeightedKey{Key: k, Cost: in.st.cost[i]})
		}
	}
	shareBits := uint64(in.bitsPerKey * float64(len(sharePos)))
	cfg.tr.begin("ledger.filtercore", 0)
	factory, err := filtercore.ByName("habf")
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	backend, err := factory.Build(sharePos, shareNeg, filtercore.BuildConfig{TotalBits: shareBits})
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	probe, ok := backend.(filtercore.PreparedQuerier)
	if !ok {
		return fmt.Errorf("ledger: the habf backend has no prepared batch path")
	}
	dst := make([]bool, len(shareKeys))
	L["filtercore.probe_ns_per_key"] = nsPer(len(shareKeys), func() {
		probe.ContainsBatchInto(dst, shareKeys, shareHashes)
	})
	cfg.tr.end()

	stats := in.stats
	if stats == nil {
		// A sharded set does not expose its shards' construction counts;
		// build shard 0's share the way the shard layer would.
		cfg.tr.begin("ledger.habf", 0)
		f, err := ihabf.New(sharePos, shareNeg, ihabf.Params{TotalBits: shareBits})
		cfg.tr.end()
		if err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		s := f.Stats()
		stats = &s
	}
	L["habf.round1_fpr"] = stats.FPRAfter
	L["habf.round1_weighted_fpr"] = stats.WeightedFPRAfter
	L["habf.collision_keys"] = float64(stats.CollisionKeys)
	L["habf.optimized_keys"] = float64(stats.Optimized)
	L["habf.failed_keys"] = float64(stats.Failed)
	L["habf.adjusted_positives"] = float64(stats.AdjustedPositives)

	set := in.set
	if set == nil {
		cfg.tr.begin("ledger.setup.shard", 0)
		pos, neg := in.st.inputs()
		f, err := buildSharded(pos, neg, uint64(in.bitsPerKey*float64(len(pos))))
		cfg.tr.end()
		if err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		set = f.(*habf.Sharded)
	}
	cfg.tr.begin("ledger.shard", 0)
	out := make([]bool, callKeys)
	batch := nsPer(len(keys), func() {
		for off := 0; off < len(keys); off += callKeys {
			set.ContainsBatchInto(out, keys[off:min(off+callKeys, len(keys))])
		}
	})
	cfg.tr.end()
	L["shard.batch_ns_per_key"] = batch
	L["shard.route_ns_per_key"] = batch - L["hashes.base_ns_per_key"] - L["filtercore.probe_ns_per_key"]
	fresh := freshKeys(cfg.seed, len(in.st.keys), in.freshFrom, ledgerAdds, in.url)
	runtime.GC()
	L["shard.add_us"] = summarize(timeEach(nil, cfg.tr, "ledger.shard.Add", fresh, set.Add)).med
	for _, k := range fresh {
		rep.check(set.Contains(k))
	}
	L["shard.rebuilds"] = float64(in.rebuilds)
	L["snapshot.bytes"] = float64(in.snapBytes)

	cfg.tr.begin("ledger.wire", 0)
	frames := keys[:min(len(keys), ledgerFrames)]
	var buf []byte
	L["wire.encode_ns_per_frame"] = nsPer(len(frames), func() {
		buf = buf[:0]
		for i, k := range frames {
			buf = wire.AppendContains(buf, uint64(i), k)
		}
	})
	rd := bytes.NewReader(buf)
	br := bufio.NewReaderSize(rd, 1<<16)
	dec := wire.NewDecoder(br)
	var req wire.Request
	decoded := 0
	L["wire.decode_ns_per_frame"] = nsPer(len(frames), func() {
		rd.Reset(buf)
		br.Reset(rd)
		for dec.Next(&req) == nil {
			decoded++
		}
	})
	cfg.tr.end()
	if decoded != ledgerReps*len(frames) {
		return fmt.Errorf("ledger: decoded %d frames of %d encoded", decoded, ledgerReps*len(frames))
	}

	L["server.coalesce_mean_batch"] = in.coalesce.MeanBatch()
	L["server.coalesce_batches"] = float64(in.coalesce.Batches)
	ops := float64(in.rs.ops)
	L["runtime.allocs_per_op"] = float64(in.rs.mallocs) / ops
	L["runtime.gc_cycles"] = float64(in.rs.gcCycles)
	L["os.ctx_switches_per_op"] = float64(in.rs.ctxSwitches) / ops
	L["os.cpu_us_per_op"] = float64(in.rs.cpu.Microseconds()) / ops
	return nil
}

// ledgerReps is how many passes each ledger timing makes; it reports the
// median.
const ledgerReps = 5

// nsPer times fn over ledgerReps passes, each after a GC fence, and
// returns the median pass time in ns divided by n.
func nsPer(n int, fn func()) float64 {
	s, _ := repeat(ledgerReps, nil, func() error { fn(); return nil }) // fn cannot fail
	return s.med * float64(time.Second) / float64(n)
}
