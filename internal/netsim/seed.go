package netsim

import "hypersearch/internal/bits"

// Per-host randomness. Every host owns a private latency stream
// derived from (Config.Seed, host, engine stream tag). The derivation
// runs the whole triple through splitmix64's finalizer instead of the
// old xor-with-multiplier scheme (Seed ^ v*const), which collided
// across (seed, host) pairs: host v at seed 0 drew the same stream as
// host 0 at seed v*const. The generator itself is also splitmix64, so
// a host's RNG is two words of state — no per-host rand.Rand table.

// Engine stream tags keep the three protocols' latency streams
// disjoint even for the same (seed, host) pair.
const (
	streamVisibility uint64 = 0x76697369 // "visi"
	streamClean      uint64 = 0x636c656e // "clen"
	streamCloning    uint64 = 0x636c6f6e // "clon"
)

// hostRNG is a zero-allocation splitmix64 sequence. Hosts only need
// latency jitter from it, so a single word of state replaces the
// ~5KB source every rand.New used to allocate per host per run.
type hostRNG struct {
	state uint64
}

// newHostRNG derives host v's stream for one run. Chaining the mixer
// (rather than xoring the inputs together) makes the map from
// (seed, host, stream) to initial state injective in practice: each
// stage's output avalanche separates inputs that differ in any field.
func newHostRNG(seed int64, v int, stream uint64) hostRNG {
	s := bits.SplitMix64(uint64(seed))
	s = bits.SplitMix64(s + uint64(v))
	s = bits.SplitMix64(s + stream)
	return hostRNG{state: s}
}

// next advances the stream: splitmix64 already folds in the golden
// increment, so stepping the state by it and mixing is the canonical
// generator.
func (r *hostRNG) next() uint64 {
	out := bits.SplitMix64(r.state)
	r.state += bits.Golden
	return out
}

// Int63n returns a value in [0, n). The modulo bias (< 2^-40 for the
// sub-millisecond latency ranges the engines draw) is irrelevant for
// link jitter; what matters is that the stream is deterministic per
// (seed, host, engine).
func (r *hostRNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("netsim: Int63n with non-positive bound")
	}
	return int64(r.next()>>1) % n
}
