//go:build race

package runtime_test

// raceEnabled trims the golden-model matrix under the race detector: the
// races that matter (sessions sharing a plan, pools, batcher, fleet, the
// kernels' fan-outs) are exercised by graph structure, not model scale, and
// the full zoo runs race-free in the tier-1 suite. The 10-20x
// race slowdown on the two heaviest models would dominate `make verify`.
const raceEnabled = true
