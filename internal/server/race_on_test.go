//go:build race

package server

// raceEnabled gates the allocation guard: under the race detector
// sync.Pool drops a quarter of its Puts on purpose, so per-request
// allocation counts are random there.
const raceEnabled = true
