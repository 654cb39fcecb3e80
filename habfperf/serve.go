package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	habf "repro"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// snapBlocks is how many GC-fenced blocks of snapshot and restore samples
// serve-binary-1m takes once its timed phase is over.
const snapBlocks = 20

// burst is how many requests the client pipelines before reading the
// responses.
const burst = 16

// request is one entry of the pre-generated request stream. Add entries
// carry no key: each Add takes the next fresh key, so a key is never
// added twice however often the stream wraps.
type request struct {
	key      []byte
	pos, add bool
}

// runServe serves an 8-shard HABF through server.BinaryServer on loopback
// and drives it from one closed-loop client connection: bursts of 16
// pipelined requests, 95% Contains under zipfian access (half positives,
// half negatives) and 5% Adds of fresh keys.
func runServe(cfg config) (*report, error) {
	rep := newReport()
	ph := newPhases(rep)
	st := ycsbStream(cfg.n, cfg.seed)
	pos, neg := st.inputs()
	reqs := requestStream(cfg, pos, neg)
	const bitsPerKey = 10
	ph.done("inputs")

	var set *habf.Sharded
	build, err := repeat(cfg.builds, func() { set = nil }, func() error {
		cfg.tr.begin("setup.shard", 0)
		defer cfg.tr.end()
		f, err := buildSharded(pos, neg, uint64(bitsPerKey*len(pos)))
		if err == nil {
			set = f.(*habf.Sharded)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	start := time.Now()
	srv, stop, addr, err := startServer(set)
	if err != nil {
		return nil, err
	}
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	out := append([]byte(nil), wire.Handshake[:]...)
	out = wire.AppendPing(out, 0)
	if _, err := conn.Write(out); err != nil {
		return nil, fmt.Errorf("handshake: %w", err)
	}
	if _, err := readResp(br, wire.OpPing, 0); err != nil {
		return nil, fmt.Errorf("handshake: %w", err)
	}
	listen := time.Since(start).Seconds()
	rep.e2e["setup_s"] = summary{q1: build.q1 + listen, med: build.med + listen, q3: build.q3 + listen, n: build.n}
	rep.note("setup build %.4f s (median of %d) + listener start %.6f s", build.med, build.n, listen)

	pos, neg = nil, nil // the set keeps what it needs
	ph.done("setup")
	accuracy(rep, set, st)
	ph.done("accuracy")

	var id uint64
	var cursor, sent, acked int
	var addKey []byte
	var batch [burst]*request
	var req int64
	co0, rebuilds0 := srv.Coalescer().Stats(), set.Stats().Rebuilds
	rs := runRounds(cfg.measure, func(r *round) bool {
		out = out[:0]
		cfg.tr.begin("bench", req)
		cfg.tr.begin("wire.encode", req)
		first := id + 1
		for j := range batch {
			q := &reqs[cursor]
			if cursor++; cursor == len(reqs) {
				cursor = 0
			}
			id++
			if q.add {
				addKey = appendYCSB(addKey[:0], cfg.seed, uint64(len(st.keys)+sent))
				sent++
				out = wire.AppendAdd(out, id, addKey)
			} else {
				out = wire.AppendContains(out, id, q.key)
			}
			batch[j] = q
		}
		cfg.tr.end()
		start := time.Now()
		cfg.tr.begin("net.write", req)
		_, err := conn.Write(out)
		cfg.tr.end()
		if err == nil {
			// Waiting for the first response byte covers the server's work
			// and the loopback hops.
			cfg.tr.begin("server", req)
			_, err = br.Peek(1)
			cfg.tr.end()
		}
		cfg.tr.begin("wire.decode", req)
		for j, q := range batch {
			if err != nil {
				break
			}
			op := wire.OpContains
			if q.add {
				op = wire.OpAdd
			}
			var present bool
			present, err = readResp(br, op, first+uint64(j))
			if err != nil {
				break
			}
			lat := float64(time.Since(start).Nanoseconds()) / 1e3
			r.ops++
			if q.add {
				acked++
				r.addLat = append(r.addLat, lat)
				rep.check(true)
				continue
			}
			r.lat = append(r.lat, lat)
			rep.check(present || !q.pos)
		}
		cfg.tr.end()
		cfg.tr.end()
		req++
		if err != nil {
			rep.check(false)
			rep.note("protocol error: %v", err)
			return false
		}
		return true
	}, nil)
	timed(rep, rs, true)
	co1 := srv.Coalescer().Stats()
	co := server.CoalesceStats{Keys: co1.Keys - co0.Keys, Batches: co1.Batches - co0.Batches}
	set.WaitRebuilds()
	rebuilds := set.Stats().Rebuilds - rebuilds0
	rep.note("serve acked_adds %d rebuilds %d coalesced_batches %d", acked, rebuilds, co.Batches)
	ph.done("timed")

	// Every acknowledged Add answers present over the wire...
	added := freshKeys(cfg.seed, len(st.keys), 0, acked, false)
	wireCheck(rep, addr, added)
	// ...and in-process, where batch answers must also equal per-key ones
	// over every probe key and Add.
	keys := append(append([][]byte(nil), st.keys...), added...)
	want := make([]bool, len(keys))
	for i, k := range keys {
		want[i] = set.Contains(k)
		if i >= len(st.keys) || st.pos[i] {
			rep.check(want[i])
		}
	}
	checkReads(rep, set.ContainsBatchInto, keys, want)
	ph.done("checks")

	var snap bytes.Buffer
	if err := set.Save(&snap); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	restored, err := habf.Load(snap.Bytes())
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	checkReads(rep, restored.ContainsBatchInto, keys, want)
	restored = nil
	// The set is timed at rest, every rebuild done: snapshots taken while
	// rebuilds run would time the rebuilds. Each block of samples starts
	// after a GC fence, so no collection of earlier garbage lands in one.
	times := &snapTimes{tr: cfg.tr, save: func(buf *bytes.Buffer) error { return set.Save(buf) },
		load: func(data []byte) (filter, error) { return habf.Load(data) }}
	for range snapBlocks {
		runtime.GC()
		if err := times.take(snapsPerRound); err != nil {
			return nil, err
		}
	}
	times.record(rep)
	ph.done("snapshot")

	if cfg.tr != nil {
		err := ledger(cfg, rep, ledgerIn{st: st, bitsPerKey: bitsPerKey,
			set: set, snapBytes: snap.Len(), rs: rs, freshFrom: sent, rebuilds: rebuilds, coalesce: co})
		if err != nil {
			return nil, err
		}
		ph.done("ledger")
	}
	return rep, nil
}

// startServer serves set through a BinaryServer on a loopback port. stop
// shuts the listener, its connections and the coalescer down and waits
// for them.
func startServer(set *habf.Sharded) (*server.Server, func(), string, error) {
	srv, err := server.New(server.Config{Filter: set})
	if err != nil {
		return nil, nil, "", fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, "", fmt.Errorf("listen: %w", err)
	}
	bs := server.NewBinaryServer(srv)
	served := make(chan error, 1)
	go func() { served <- bs.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = bs.Shutdown(ctx) // a cut connection at exit changes no result
		<-served
		srv.Close()
	}
	return srv, stop, ln.Addr().String(), nil
}

// requestStream pre-generates the serve workload's request mix, keys
// copied into one arena in request order.
func requestStream(cfg config, pos [][]byte, neg []habf.WeightedKey) []request {
	rng := rand.New(rand.NewSource(cfg.seed + 2))
	zpos, _ := workload.New(workload.Zipfian, len(pos), cfg.seed+3) // n > 0 and a known distribution cannot fail
	zneg, _ := workload.New(workload.Zipfian, len(neg), cfg.seed+4)
	reqs := make([]request, cfg.n)
	arena := make([]byte, 0, len(reqs)*ycsbKeyLen)
	for i := range reqs {
		var key []byte
		switch {
		case rng.Intn(100) < 5:
			reqs[i].add = true
			continue
		case rng.Intn(2) == 0:
			key, reqs[i].pos = pos[zpos.Next()], true
		default:
			key = neg[zneg.Next()].Key
		}
		start := len(arena)
		arena = append(arena, key...)
		reqs[i].key = arena[start:len(arena):len(arena)]
	}
	return reqs
}

// readResp reads one response frame and checks it answers (op, id); for
// OpContains it returns the answer.
func readResp(br *bufio.Reader, op wire.Op, id uint64) (bool, error) {
	gotOp, err := br.ReadByte()
	if err != nil {
		return false, fmt.Errorf("read response: %w", err)
	}
	gotID, err := binary.ReadUvarint(br)
	if err != nil {
		return false, fmt.Errorf("read response id: %w", err)
	}
	status, err := br.ReadByte()
	if err != nil {
		return false, fmt.Errorf("read response status: %w", err)
	}
	if status != wire.StatusOK {
		return false, errors.New("server answered with an error frame")
	}
	if wire.Op(gotOp) != op || gotID != id {
		return false, fmt.Errorf("response %v id %d answers request %v id %d", wire.Op(gotOp), gotID, op, id)
	}
	if op != wire.OpContains {
		return false, nil
	}
	b, err := br.ReadByte()
	if err != nil {
		return false, fmt.Errorf("read contains result: %w", err)
	}
	if b != '0' && b != '1' {
		return false, fmt.Errorf("bad contains result %#x", b)
	}
	return b == '1', nil
}

// wireCheck asks the server about every key over a fresh connection, in
// batch frames; each must answer present. A connection or protocol error
// fails the keys it leaves unchecked.
func wireCheck(rep *report, addr string, keys [][]byte) {
	c, err := wire.Dial(addr)
	if err == nil {
		defer c.Close()
	}
	for off := 0; off < len(keys); off += 4096 {
		chunk := keys[off:min(off+4096, len(keys))]
		var got []bool
		if err == nil {
			got, err = c.ContainsBatch(chunk)
		}
		if err != nil {
			rep.note("wire check: %v", err)
			for range chunk {
				rep.check(false)
			}
			continue
		}
		for _, present := range got {
			rep.check(present)
		}
	}
}
