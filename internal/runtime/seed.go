package runtime

import "hypersearch/internal/bits"

// The goroutine runtime never seeds from the wall clock: every random
// stream — per-agent schedulers, the fault injector, the watchdog — is
// derived from the single explicit Config.Seed, so a run is
// reproducible end-to-end from its configuration alone. Streams are
// split with SplitMix64 rather than seed+i so that adjacent agent
// indices get decorrelated schedules.

// deriveSeed returns the seed for an independent stream of the run
// identified by root. The mixing is deliberately asymmetric in (root,
// stream) — an xor of two hashes would collide whenever the pair is
// swapped — and distinct stream ids give decorrelated sources.
func deriveSeed(root int64, stream uint64) int64 {
	return int64(bits.SplitMix64(bits.SplitMix64(uint64(root)) + stream))
}
