//go:build race

package core

// raceEnabled gates the allocation guards: under the race detector
// sync.Pool drops a quarter of its Puts on purpose, so per-query
// allocation counts are random there.
const raceEnabled = true
