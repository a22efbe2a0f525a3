//go:build race

package proxy

// raceEnabled reports that the race detector is active: it drops sync.Pool
// entries at random, so allocation counts are not pinned under it.
const raceEnabled = true
