package main

import (
	"fmt"
	"math/rand"

	habf "repro"
	"repro/internal/dataset"
)

// costSkew is the Zipf skewness of the negatives' misidentification
// costs, the paper's default cost distribution.
const costSkew = 1.0

// stream is a workload's probe set: every positive and every negative,
// shuffled by the seed and packed into one arena in probe order, so a
// timed pass walks memory front to back instead of chasing keys spread
// across the heap.
type stream struct {
	keys [][]byte
	pos  []bool    // keys[i] is a positive
	cost []float64 // misidentification cost of keys[i]; 0 for positives
	npos int
}

// newStream builds the probe set of n positives and n negatives; key
// appends key i (positives are i < n) to dst.
func newStream(n int, seed int64, arenaBytes int, key func(dst []byte, i int) []byte) *stream {
	costs := dataset.ZipfCosts(n, costSkew, seed+1)
	order := rand.New(rand.NewSource(seed)).Perm(2 * n)
	arena := make([]byte, 0, arenaBytes)
	s := &stream{
		keys: make([][]byte, 2*n),
		pos:  make([]bool, 2*n),
		cost: make([]float64, 2*n),
		npos: n,
	}
	for j, i := range order {
		start := len(arena)
		arena = key(arena, i)
		s.keys[j] = arena[start:len(arena):len(arena)]
		if i < n {
			s.pos[j] = true
		} else {
			s.cost[j] = costs[i-n]
		}
	}
	return s
}

// inputs splits the stream into the construction inputs, both in probe
// order and aliasing the stream's arena.
func (s *stream) inputs() (pos [][]byte, neg []habf.WeightedKey) {
	pos = make([][]byte, 0, s.npos)
	neg = make([]habf.WeightedKey, 0, len(s.keys)-s.npos)
	for i, k := range s.keys {
		if s.pos[i] {
			pos = append(pos, k)
		} else {
			neg = append(neg, habf.WeightedKey{Key: k, Cost: s.cost[i]})
		}
	}
	return pos, neg
}

// shallaStream is the paper's URL workload: n blacklisted and n benign
// synthetic Shalla URLs from internal/dataset.
func shallaStream(n int, seed int64) *stream {
	p := dataset.Shalla(n, n, seed)
	size := 0
	for i := 0; i < n; i++ {
		size += len(p.Positives[i]) + len(p.Negatives[i])
	}
	return newStream(n, seed, size, func(dst []byte, i int) []byte {
		if i < n {
			return append(dst, p.Positives[i]...)
		}
		return append(dst, p.Negatives[i-n]...)
	})
}

// ycsbKeyLen is len("usr:") plus 16 hex digits.
const ycsbKeyLen = 20

// ycsbStream is the YCSB key format of internal/dataset ("usr:" + 16 hex
// digits), generated as splitmix64 of a seeded counter: a bijection, so
// keys are distinct without a dedup map, and key i for i ≥ 2n (fresh
// keys for Adds) never repeats a probe key.
func ycsbStream(n int, seed int64) *stream {
	return newStream(n, seed, 2*n*ycsbKeyLen, func(dst []byte, i int) []byte {
		return appendYCSB(dst, seed, uint64(i))
	})
}

func appendYCSB(dst []byte, seed int64, i uint64) []byte {
	const hex = "0123456789abcdef"
	v := splitmix64(uint64(seed)<<32 ^ i)
	dst = append(dst, "usr:"...)
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hex[v>>uint(shift)&0xf])
	}
	return dst
}

// splitmix64 is the SplitMix64 output function, a bijection on uint64.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// freshKeys makes keys from..from+n-1 of the run's fresh keys, which are
// in no probe set: YCSB workloads continue the bijective counter past the
// probeKeys probe keys; URLs use a domain the Shalla generator never
// emits.
func freshKeys(seed int64, probeKeys, from, n int, url bool) [][]byte {
	out := make([][]byte, n)
	arena := make([]byte, 0, n*40)
	for i := range out {
		start := len(arena)
		if url {
			arena = fmt.Appendf(arena, "http://fresh-%d-%d.example/add", seed, from+i)
		} else {
			arena = appendYCSB(arena, seed, uint64(probeKeys+from+i))
		}
		out[i] = arena[start:len(arena):len(arena)]
	}
	return out
}
